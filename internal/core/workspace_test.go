package core_test

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/ecr"
	"repro/internal/errtest"
	"repro/internal/paperex"
	"repro/internal/session"
)

// These tests drive a pairwise integration the way core's callers do:
// references resolve through ResolveAttr, the state lives in a
// session.Workspace, and a batch spec is checked by batch.Run.

func paperPair(t *testing.T) *session.Workspace {
	t.Helper()
	ws := session.NewWorkspace()
	for _, s := range []*ecr.Schema{paperex.Sc1(), paperex.Sc2()} {
		if err := ws.AddSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	return ws
}

// TestNewRegistersAttributes: adding the pair registers every attribute,
// and each registered reference is exactly what ResolveAttr produces for
// its "object.attribute" name.
func TestNewRegistersAttributes(t *testing.T) {
	ws := paperPair(t)
	// sc1 has 4 attributes, sc2 has 9.
	if got := ws.Registry().Len(); got != 13 {
		t.Errorf("registered attributes = %d, want 13", got)
	}
	if s := ws.Schemas(); len(s) != 2 || s[0].Name != "sc1" || s[1].Name != "sc2" {
		t.Errorf("schemas = %v", s)
	}
	ws.Registry().ForEach(func(a ecr.AttrRef, _ int) {
		ref, err := core.ResolveAttr(ws.Schema(a.Schema), a.Object+"."+a.Attr)
		if err != nil || ref != a {
			t.Errorf("ResolveAttr(%s, %s.%s) = %+v, %v; want %+v", a.Schema, a.Object, a.Attr, ref, err, a)
		}
	})
}

// TestAssertErrors: an assertion naming a structure its schema lacks is
// rejected, on either side, for object classes and relationship sets.
func TestAssertErrors(t *testing.T) {
	for _, src := range []string{
		"assert Nope 1 Faculty",
		"assert Student 1 Nope",
		"rel-assert Nope 1 Works",
		"rel-assert Majors 1 Nope",
	} {
		spec, err := batch.ParseSpec("schemas sc1 sc2\n" + src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := batch.Run([]*ecr.Schema{paperex.Sc1(), paperex.Sc2()}, spec); !errtest.Contains(err, "has no") {
			t.Errorf("%s: err = %v, want an unknown-structure error", src, err)
		}
	}
}

// TestIntegrateNamed: a declaration resolved by ResolveAttr reaches the
// integration, which takes the given name.
func TestIntegrateNamed(t *testing.T) {
	ws := paperPair(t)
	a, err := core.ResolveAttr(ws.Schema("sc1"), "Majors.Since")
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.ResolveAttr(ws.Schema("sc2"), "Stud_major.Since")
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Registry().Declare(a, b); err != nil {
		t.Fatal(err)
	}
	res, err := ws.Integrate("sc1", "sc2", "custom")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Name != "custom" {
		t.Errorf("name = %q", res.Schema.Name)
	}
	if !ws.Registry().Equivalent(a, b) {
		t.Error("declared equivalence lost")
	}
}
