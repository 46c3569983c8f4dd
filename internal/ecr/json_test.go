package ecr

import (
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/errtest"
)

func TestJSONRoundTrip(t *testing.T) {
	s, err := ParseSchema(sampleDDL)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("JSON round trip changed schema")
	}
}

func TestJSONKindCodes(t *testing.T) {
	data, err := json.Marshal(KindCategory)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"C"` {
		t.Errorf("marshal = %s", data)
	}
	var k Kind
	for _, in := range []string{`"R"`, `"relationship"`, `2`} {
		if err := json.Unmarshal([]byte(in), &k); err != nil || k != KindRelationship {
			t.Errorf("unmarshal %s = %v, %v", in, k, err)
		}
	}
	if err := json.Unmarshal([]byte(`"zzz"`), &k); err == nil {
		t.Error("bad kind should fail")
	}
	if err := json.Unmarshal([]byte(`9`), &k); err == nil {
		t.Error("out-of-range kind should fail")
	}
}

// TestKindMarshalJSON pins MarshalJSON to the quoted String form, the
// bytes json.Marshal(k.String()) produced, in and out of range.
func TestKindMarshalJSON(t *testing.T) {
	for _, c := range []struct {
		k    Kind
		want string
	}{
		{KindEntity, `"E"`},
		{KindCategory, `"C"`},
		{KindRelationship, `"R"`},
		{Kind(7), `"Kind(7)"`},
		{Kind(-1), `"Kind(-1)"`},
	} {
		got, err := c.k.MarshalJSON()
		if err != nil || string(got) != c.want {
			t.Errorf("Kind(%d).MarshalJSON() = %s, %v; want %s", int(c.k), got, err, c.want)
		}
		quoted, err := json.Marshal(c.k.String())
		if err != nil || string(quoted) != c.want {
			t.Errorf("json.Marshal(%q) = %s, %v; want %s", c.k.String(), quoted, err, c.want)
		}
		inStruct, err := json.Marshal(struct{ K Kind }{c.k})
		if want := `{"K":` + c.want + `}`; err != nil || string(inStruct) != want {
			t.Errorf("in a struct: %s, %v; want %s", inStruct, err, want)
		}
	}
}

func TestJSONCarriesProvenance(t *testing.T) {
	s := NewSchema("int1")
	if err := s.AddObject(&ObjectClass{
		Name: "E_Dept",
		Kind: KindEntity,
		Attributes: []Attribute{{
			Name:   "D_Dname",
			Domain: "char",
			Key:    true,
			Components: []AttrRef{
				{Schema: "a", Object: "Dept", Kind: KindEntity, Attr: "Dname"},
				{Schema: "b", Object: "Dept", Kind: KindEntity, Attr: "Dname"},
			},
		}},
		Sources: []ObjectRef{
			{Schema: "a", Object: "Dept", Kind: KindEntity},
			{Schema: "b", Object: "Dept", Kind: KindEntity},
		},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Error("provenance lost in JSON round trip")
	}
}

func TestDecodeJSONRejectsInvalid(t *testing.T) {
	// Valid JSON, invalid schema (category without parents).
	bad := `{"name":"x","objects":[{"name":"C","kind":"C"}]}`
	if _, err := DecodeJSON([]byte(bad)); err == nil {
		t.Error("invalid schema should be rejected")
	}
	if _, err := DecodeJSON([]byte(`{"name":`)); err == nil {
		t.Error("syntax error should be rejected")
	}
	if _, err := DecodeJSON([]byte(`{"name":"x","bogus":1}`)); !errtest.Contains(err, "unknown field") {
		t.Error("unknown fields should be rejected")
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSchema(seed)
		data, err := EncodeJSON(s)
		if err != nil {
			return false
		}
		back, err := DecodeJSON(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(s, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s, err := ParseSchema(sampleDDL)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if !reflect.DeepEqual(s, c) {
		t.Fatal("clone differs")
	}
	c.Objects[0].Attributes[0].Name = "Changed"
	c.Objects[0].Parents = append(c.Objects[0].Parents, "X")
	c.Relationships[0].Participants[0].Object = "Changed"
	if s.Objects[0].Attributes[0].Name != "Name" {
		t.Error("clone shares attribute storage")
	}
	if len(s.Objects[0].Parents) != 0 {
		t.Error("clone shares parent storage")
	}
	if s.Relationships[0].Participants[0].Object != "Student" {
		t.Error("clone shares participant storage")
	}
}

func TestCloneNil(t *testing.T) {
	var s *Schema
	if s.Clone() != nil {
		t.Error("nil schema clone should be nil")
	}
	var o *ObjectClass
	if o.Clone() != nil {
		t.Error("nil object clone should be nil")
	}
	var r *RelationshipSet
	if r.Clone() != nil {
		t.Error("nil relationship clone should be nil")
	}
}

func TestCloneProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSchema(seed)
		return reflect.DeepEqual(s, s.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
