package ecr

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// MarshalJSON encodes the kind as its one-letter screen code ("E", "C", "R")
// so that stored workspaces stay readable. It runs for every object of
// every schema encoded, so it quotes the code directly: String's output
// (a letter, or "Kind(n)" out of range) never needs escaping.
func (k Kind) MarshalJSON() ([]byte, error) {
	s := k.String()
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), nil
}

// UnmarshalJSON accepts the one-letter code, the full word, or the numeric
// form.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := ParseKind(s)
		if err != nil {
			return err
		}
		*k = parsed
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err == nil {
		if n < int(KindEntity) || n > int(KindRelationship) {
			return fmt.Errorf("ecr: kind out of range: %d", n)
		}
		*k = Kind(n)
		return nil
	}
	return fmt.Errorf("ecr: cannot decode kind from %s", data)
}

// EncodeJSON renders the schema as indented JSON, including provenance
// fields that the DDL does not carry. It is the storage format of the tool's
// workspace.
func EncodeJSON(s *Schema) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, fmt.Errorf("ecr: encode schema %s: %w", s.Name, err)
	}
	return buf.Bytes(), nil
}

// DecodeJSON parses a schema from its JSON form and validates it.
func DecodeJSON(data []byte) (*Schema, error) {
	var s Schema
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("ecr: decode schema: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
