// Package core resolves the DDA's "object.attribute" references against a
// component schema. The pairwise integration state itself — schemas,
// attribute equivalence classes and assertion matrices — lives in
// session.Workspace; callers that declare an equivalence resolve both
// references here and pass the results to the workspace registry's
// Declare.
package core

import (
	"fmt"
	"strings"

	"repro/internal/ecr"
)

// ResolveAttr resolves an "object.attribute" reference against a schema,
// producing the fully qualified AttrRef.
func ResolveAttr(s *ecr.Schema, ref string) (ecr.AttrRef, error) {
	dot := strings.LastIndexByte(ref, '.')
	if dot <= 0 || dot == len(ref)-1 {
		return ecr.AttrRef{}, fmt.Errorf("core: bad attribute reference %q (want object.attribute)", ref)
	}
	object, attr := ref[:dot], ref[dot+1:]
	if o := s.Object(object); o != nil {
		if _, ok := o.Attribute(attr); !ok {
			return ecr.AttrRef{}, fmt.Errorf("core: %s.%s has no attribute %q", s.Name, object, attr)
		}
		return ecr.AttrRef{Schema: s.Name, Object: object, Kind: o.Kind, Attr: attr}, nil
	}
	if r := s.Relationship(object); r != nil {
		if _, ok := r.Attribute(attr); !ok {
			return ecr.AttrRef{}, fmt.Errorf("core: %s.%s has no attribute %q", s.Name, object, attr)
		}
		return ecr.AttrRef{Schema: s.Name, Object: object, Kind: ecr.KindRelationship, Attr: attr}, nil
	}
	return ecr.AttrRef{}, fmt.Errorf("core: schema %s has no structure %q", s.Name, object)
}
