// Package session implements the interactive schema integration tool
// itself: the six-task main menu and the twelve screens of the paper,
// driven over a line-oriented IO abstraction so the same state machine runs
// against a real terminal (cmd/sit) and against scripted input in tests and
// benchmarks. The Workspace holds the tool's bookkeeping — schemas,
// attribute equivalence classes and assertion matrices — and persists to a
// JSON file between runs. It is the one pairwise integration state: the
// batch runner and the server's Store drive it too. It caches no
// integration result; Integrate computes from the current state on every
// call.
package session

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/assertion"
	"repro/internal/ecr"
	"repro/internal/equivalence"
	"repro/internal/integrate"
	"repro/internal/resemblance"
	"repro/internal/similarity"
)

// Workspace is the tool's persistent state.
type Workspace struct {
	schemas  []*ecr.Schema
	registry *equivalence.Registry
	// sim is the sparse similarity engine over registry, maintained
	// incrementally through the registry's observer hooks.
	sim *similarity.Engine
	// Assertion closure engines per schema pair. Each engine maintains
	// its matrix and transitive closure incrementally.
	objAsserts map[pair]*assertion.Engine
	relAsserts map[pair]*assertion.Engine
}

// pair names an unordered schema pair: a holds the smaller name.
type pair struct{ a, b string }

func pairOf(s1, s2 string) pair {
	if s2 < s1 {
		s1, s2 = s2, s1
	}
	return pair{s1, s2}
}

func (p pair) has(name string) bool { return p.a == name || p.b == name }

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	w := &Workspace{
		registry:   equivalence.NewRegistry(),
		objAsserts: map[pair]*assertion.Engine{},
		relAsserts: map[pair]*assertion.Engine{},
	}
	w.sim = similarity.Attach(w.registry)
	return w
}

// Schemas returns the defined schemas in definition order.
func (w *Workspace) Schemas() []*ecr.Schema { return w.schemas }

// Schema returns the named schema, or nil.
func (w *Workspace) Schema(name string) *ecr.Schema {
	for _, s := range w.schemas {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// AddSchema registers a schema definition.
func (w *Workspace) AddSchema(s *ecr.Schema) error {
	if s == nil || s.Name == "" {
		return fmt.Errorf("session: schema needs a name")
	}
	if w.Schema(s.Name) != nil {
		return fmt.Errorf("session: schema %q already defined", s.Name)
	}
	w.schemas = append(w.schemas, s)
	w.registry.RegisterSchema(s)
	return nil
}

// RemoveSchema deletes the named schema and every assertion involving it.
func (w *Workspace) RemoveSchema(name string) bool {
	for i, s := range w.schemas {
		if s.Name == name {
			w.schemas = append(w.schemas[:i], w.schemas[i+1:]...)
			for key := range w.objAsserts {
				if key.has(name) {
					delete(w.objAsserts, key)
				}
			}
			for key := range w.relAsserts {
				if key.has(name) {
					delete(w.relAsserts, key)
				}
			}
			return true
		}
	}
	return false
}

// Registry exposes the attribute equivalence registry.
func (w *Workspace) Registry() *equivalence.Registry { return w.registry }

// Similarity exposes the sparse similarity engine attached to the registry.
func (w *Workspace) Similarity() *similarity.Engine { return w.sim }

// RankObjects ranks the object-class pairs of the two schemas by the
// resemblance function through the sparse engine (identical output to
// resemblance.RankObjects).
func (w *Workspace) RankObjects(s1, s2 *ecr.Schema) []resemblance.Pair {
	return w.sim.RankObjects(s1, s2)
}

// RankRelationships ranks the relationship-set pairs the same way.
func (w *Workspace) RankRelationships(s1, s2 *ecr.Schema) []resemblance.Pair {
	return w.sim.RankRelationships(s1, s2)
}

// ObjectAssertions returns (creating if needed) the object-class assertion
// engine for a schema pair.
func (w *Workspace) ObjectAssertions(s1, s2 string) *assertion.Engine {
	key := pairOf(s1, s2)
	if w.objAsserts[key] == nil {
		w.objAsserts[key] = assertion.NewEngine()
	}
	return w.objAsserts[key]
}

// RelationshipAssertions returns (creating if needed) the relationship-set
// assertion engine for a schema pair.
func (w *Workspace) RelationshipAssertions(s1, s2 string) *assertion.Engine {
	key := pairOf(s1, s2)
	if w.relAsserts[key] == nil {
		w.relAsserts[key] = assertion.NewEngine()
	}
	return w.relAsserts[key]
}

// Integrate runs the integration phase on the pair's current state and
// returns the integrated schema, the mappings and the integration report.
// An empty name uses the default "INT_<s1>_<s2>".
func (w *Workspace) Integrate(s1, s2, name string) (*integrate.Result, error) {
	a, b := w.Schema(s1), w.Schema(s2)
	if a == nil || b == nil {
		return nil, fmt.Errorf("session: unknown schema in pair %s/%s", s1, s2)
	}
	return integrate.Integrate(integrate.Input{
		S1: a, S2: b,
		Registry:      w.registry,
		Objects:       w.ObjectAssertions(s1, s2).Set(),
		Relationships: w.RelationshipAssertions(s1, s2).Set(),
		Name:          name,
	})
}

// --- persistence ---

type storedAssertion struct {
	SchemaA string `json:"schemaA"`
	ObjectA string `json:"objectA"`
	SchemaB string `json:"schemaB"`
	ObjectB string `json:"objectB"`
	Code    int    `json:"code"`
}

type storedWorkspace struct {
	Schemas       []*ecr.Schema     `json:"schemas"`
	Equivalences  [][]ecr.AttrRef   `json:"equivalences,omitempty"`
	ObjAssertions []storedAssertion `json:"objectAssertions,omitempty"`
	RelAssertions []storedAssertion `json:"relationshipAssertions,omitempty"`
}

// Marshal encodes the workspace as JSON: schemas, multi-member
// equivalence classes and DDA-specified assertions (derived entries are
// recomputed on load). It is the byte-level form behind Save and the
// server's durability snapshots.
func Marshal(w *Workspace) ([]byte, error) {
	st := storedWorkspace{
		Schemas:      w.schemas,
		Equivalences: w.registry.Classes(),
	}
	collect := func(sets map[pair]*assertion.Engine) []storedAssertion {
		var keys []pair
		for k := range sets {
			keys = append(keys, k)
		}
		// Pairs keep the order of their joined "a|b" names, the order
		// snapshots have always been written in.
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].a+"|"+keys[i].b < keys[j].a+"|"+keys[j].b
		})
		var out []storedAssertion
		for _, k := range keys {
			for _, e := range sets[k].Entries() {
				if e.Derived {
					continue
				}
				out = append(out, storedAssertion{
					SchemaA: e.A.Schema, ObjectA: e.A.Object,
					SchemaB: e.B.Schema, ObjectB: e.B.Object,
					Code: e.Kind.Code(),
				})
			}
		}
		return out
	}
	st.ObjAssertions = collect(w.objAsserts)
	st.RelAssertions = collect(w.relAsserts)

	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("session: encode workspace: %w", err)
	}
	return data, nil
}

// Save writes the workspace to a JSON file. Only DDA-specified assertions
// are stored; derived entries are recomputed on demand.
func (w *Workspace) Save(path string) error {
	data, err := Marshal(w)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("session: write workspace: %w", err)
	}
	return os.Rename(tmp, path)
}

// Unmarshal rebuilds a workspace from Marshal's encoding.
func Unmarshal(data []byte) (*Workspace, error) {
	var st storedWorkspace
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("session: decode workspace: %w", err)
	}
	w := NewWorkspace()
	for _, s := range st.Schemas {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if err := w.AddSchema(s); err != nil {
			return nil, err
		}
	}
	for _, class := range st.Equivalences {
		for i := 1; i < len(class); i++ {
			if err := w.registry.Declare(class[0], class[i]); err != nil {
				return nil, fmt.Errorf("session: load equivalences: %w", err)
			}
		}
	}
	apply := func(stored []storedAssertion, pick func(s1, s2 string) *assertion.Engine) error {
		for _, a := range stored {
			kind, err := assertion.KindFromCode(a.Code)
			if err != nil {
				return err
			}
			set := pick(a.SchemaA, a.SchemaB)
			if err := set.Assert(
				assertion.ObjKey{Schema: a.SchemaA, Object: a.ObjectA},
				assertion.ObjKey{Schema: a.SchemaB, Object: a.ObjectB},
				kind,
			); err != nil {
				return err
			}
		}
		return nil
	}
	if err := apply(st.ObjAssertions, w.ObjectAssertions); err != nil {
		return nil, fmt.Errorf("session: load object assertions: %w", err)
	}
	if err := apply(st.RelAssertions, w.RelationshipAssertions); err != nil {
		return nil, fmt.Errorf("session: load relationship assertions: %w", err)
	}
	return w, nil
}

// Load reads a workspace from a JSON file written by Save.
func Load(path string) (*Workspace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}
