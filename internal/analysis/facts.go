package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// A Fact is a typed datum an analyzer attaches to an object or a package so
// checks compose across packages, in the manner of go/analysis facts. A
// fact type is a pointer-to-struct with JSON-serializable exported fields;
// the AFact marker keeps arbitrary values out of the fact store.
//
// Facts travel between packages through the driver (internal/analysis/
// modrun), which carries them in memory and in its cross-run cache. They
// propagate transitively: a package's exported fact set is the union of
// what its analyzers exported and everything imported from its
// dependencies, so a fact rides from internal/journal through
// internal/replication to internal/server without the middle package
// knowing about it.
type Fact interface{ AFact() }

// FactKind distinguishes object facts (attached to a package-level
// function, var or const, keyed by ObjectKey) from package facts (attached
// to a whole package, keyed by its import path).
const (
	ObjectFactKind  = "object"
	PackageFactKind = "package"
)

// FactRecord is one serialized fact: who exported it, what it is attached
// to, its Go type name, and the JSON payload.
type FactRecord struct {
	Analyzer string          `json:"analyzer"`
	Kind     string          `json:"kind"`
	Key      string          `json:"key"`
	Type     string          `json:"type"`
	Data     json.RawMessage `json:"data"`
}

// Decode unmarshals the record's payload into fact (a pointer).
func (r FactRecord) Decode(fact any) error {
	return json.Unmarshal(r.Data, fact)
}

type factKey struct{ analyzer, kind, key, typ string }

// FactSet is an ordered collection of fact records, deduplicated by
// (analyzer, kind, key, type) with last-add-wins.
type FactSet struct {
	records map[factKey]json.RawMessage
	order   []factKey
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{records: map[factKey]json.RawMessage{}}
}

func (fs *FactSet) add(k factKey, data json.RawMessage) {
	if _, ok := fs.records[k]; !ok {
		fs.order = append(fs.order, k)
	}
	fs.records[k] = data
}

// Add inserts one record.
func (fs *FactSet) Add(rec FactRecord) {
	fs.add(factKey{rec.Analyzer, rec.Kind, rec.Key, rec.Type}, rec.Data)
}

// Merge copies every record of other into fs.
func (fs *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for _, k := range other.order {
		fs.add(k, other.records[k])
	}
}

// Len reports the number of records.
func (fs *FactSet) Len() int { return len(fs.records) }

// Records returns the records sorted into a deterministic order.
func (fs *FactSet) Records() []FactRecord {
	out := make([]FactRecord, 0, len(fs.records))
	for _, k := range fs.order {
		out = append(out, FactRecord{Analyzer: k.analyzer, Kind: k.kind, Key: k.key, Type: k.typ, Data: fs.records[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Type < b.Type
	})
	return out
}

// EncodeJSON serializes the set as a JSON array of records.
func (fs *FactSet) EncodeJSON() ([]byte, error) {
	return json.Marshal(fs.Records())
}

// DecodeFactSet parses a JSON array of records.
func DecodeFactSet(data []byte) (*FactSet, error) {
	var recs []FactRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("analysis: decode fact set: %w", err)
	}
	fs := NewFactSet()
	for _, r := range recs {
		fs.Add(r)
	}
	return fs, nil
}

func factTypeName(fact Fact) string {
	t := fmt.Sprintf("%T", fact)
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		t = t[i+1:]
	}
	return t
}

// BasePath strips a test-variant suffix from a package path:
// "repro/internal/server [repro/internal/server.test]" and
// "repro/internal/server" are the same package to every analyzer contract.
func BasePath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// ObjectKey names a package-level object stably across compilation units:
// "pkgpath.Name" for functions, vars and consts, "pkgpath.Recv.Name" for
// methods. Unexported objects are included — facts are a tool-internal
// channel, not an API surface. Returns "" for objects facts cannot attach
// to (locals, builtins, objects without a package).
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	// Only package-scope objects (and methods) have stable names.
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if rn := recvTypeName(sig.Recv().Type()); rn != "" {
				return BasePath(fn.Pkg().Path()) + "." + rn + "." + fn.Name()
			}
			return ""
		}
		return BasePath(fn.Pkg().Path()) + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return BasePath(obj.Pkg().Path()) + "." + obj.Name()
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// ExportObjectFact attaches a fact to obj for this analyzer. The object
// must be package-level (or a method); others are silently skipped.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	key := ObjectKey(obj)
	if key == "" || p.exported == nil {
		return
	}
	p.exportFact(ObjectFactKind, key, fact)
}

// ExportPackageFact attaches a fact to the package being analyzed.
func (p *Pass) ExportPackageFact(fact Fact) {
	if p.exported == nil {
		return
	}
	p.exportFact(PackageFactKind, BasePath(p.Pkg.Path()), fact)
}

func (p *Pass) exportFact(kind, key string, fact Fact) {
	data, err := json.Marshal(fact)
	if err != nil {
		// Fact types are pointer-to-struct with plain fields; a marshal
		// failure is a programming error in the analyzer.
		panic(fmt.Sprintf("analysis: marshal %s fact %s for %s: %v", p.Analyzer.Name, factTypeName(fact), key, err))
	}
	p.exported.Add(FactRecord{Analyzer: p.Analyzer.Name, Kind: kind, Key: key, Type: factTypeName(fact), Data: data})
}

// ImportObjectFact loads the fact attached to obj by this analyzer in a
// dependency, filling fact and reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.importFact(ObjectFactKind, ObjectKey(obj), fact)
}

// ImportPackageFact loads the fact this analyzer attached to the package
// with the given import path in a dependency.
func (p *Pass) ImportPackageFact(pkgPath string, fact Fact) bool {
	return p.importFact(PackageFactKind, BasePath(pkgPath), fact)
}

func (p *Pass) importFact(kind, key string, fact Fact) bool {
	if p.imported == nil || key == "" {
		return false
	}
	data, ok := p.imported.records[factKey{p.Analyzer.Name, kind, key, factTypeName(fact)}]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}

// AllImportedFacts lists the imported records of this analyzer with the
// given kind and fact type, for analyzers that aggregate over everything
// their dependencies exported (decode each with FactRecord.Decode).
func (p *Pass) AllImportedFacts(kind string, fact Fact) []FactRecord {
	if p.imported == nil {
		return nil
	}
	typ := factTypeName(fact)
	var out []FactRecord
	for _, rec := range p.imported.Records() {
		if rec.Analyzer == p.Analyzer.Name && rec.Kind == kind && rec.Type == typ {
			out = append(out, rec)
		}
	}
	return out
}
