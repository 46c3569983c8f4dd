package session

import (
	"strconv"
	"strings"

	"repro/internal/ecr"
)

// runSchemaCollection drives phase 1: Screens 2-5. The DDA defines any
// number of schemas, each with its structures and attributes.
func (s *Session) runSchemaCollection() {
	for {
		var names []string
		for _, sc := range s.ws.Schemas() {
			names = append(names, sc.Name)
		}
		s.io.Display(schemaNameCollectionScreen(names).Text())
		line, ok := s.io.ReadLine("Choose: (A)dd (D)elete (U)pdate (E)xit : ")
		if !ok {
			return
		}
		switch choice(line) {
		case "a":
			name, ok := s.readNonEmpty("New schema name => ")
			if !ok {
				return
			}
			sc := ecr.NewSchema(name)
			if err := s.ws.AddSchema(sc); err != nil {
				s.notify("SCHEMA COLLECTION", err.Error())
				continue
			}
			s.editSchema(sc)
		case "d":
			name, ok := s.readNonEmpty("Schema name to delete => ")
			if !ok {
				return
			}
			if !s.ws.RemoveSchema(name) {
				s.notify("SCHEMA COLLECTION", "No schema named "+name)
			}
		case "u":
			name, ok := s.readNonEmpty("Schema name to update => ")
			if !ok {
				return
			}
			sc := s.ws.Schema(name)
			if sc == nil {
				s.notify("SCHEMA COLLECTION", "No schema named "+name)
				continue
			}
			s.editSchema(sc)
		case "e", "x":
			return
		}
	}
}

// editSchema drives the Structure Information Collection Screen (Screen 3)
// for one schema.
func (s *Session) editSchema(sc *ecr.Schema) {
	scroll := 0
	for {
		screen := structureCollectionScreen(sc, scroll)
		s.io.Display(screen.Text())
		line, ok := s.io.ReadLine("Choose: (S)croll (A)dd (D)elete (U)pdate (E)xit : ")
		if !ok {
			return
		}
		switch choice(line) {
		case "s":
			scroll += 5
			if scroll > len(sc.Objects)+len(sc.Relationships) {
				scroll = 0
			}
		case "a":
			s.addStructure(sc)
		case "d":
			name, ok := s.readNonEmpty("Structure name to delete => ")
			if !ok {
				return
			}
			if !sc.RemoveObject(name) && !sc.RemoveRelationship(name) {
				s.notify("SCHEMA COLLECTION", "No structure named "+name)
			}
		case "u":
			name, ok := s.readNonEmpty("Structure name to update => ")
			if !ok {
				return
			}
			if o := sc.Object(name); o != nil {
				s.editAttributes(sc.Name, name, o.Kind, &o.Attributes)
			} else if r := sc.Relationship(name); r != nil {
				s.editAttributes(sc.Name, name, ecr.KindRelationship, &r.Attributes)
			} else {
				s.notify("SCHEMA COLLECTION", "No structure named "+name)
			}
		case "e", "x":
			return
		}
	}
}

// addStructure collects one new structure: its name, type and details.
func (s *Session) addStructure(sc *ecr.Schema) {
	name, ok := s.readNonEmpty("Object name => ")
	if !ok {
		return
	}
	kindLine, ok := s.readNonEmpty("Type (e/c/r) => ")
	if !ok {
		return
	}
	kind, err := ecr.ParseKind(kindLine)
	if err != nil {
		s.notify("SCHEMA COLLECTION", err.Error())
		return
	}
	switch kind {
	case ecr.KindEntity:
		o := &ecr.ObjectClass{Name: name, Kind: ecr.KindEntity}
		if err := sc.AddObject(o); err != nil {
			s.notify("SCHEMA COLLECTION", err.Error())
			return
		}
		s.editAttributes(sc.Name, name, kind, &o.Attributes)
	case ecr.KindCategory:
		o := &ecr.ObjectClass{Name: name, Kind: ecr.KindCategory}
		if err := sc.AddObject(o); err != nil {
			s.notify("SCHEMA COLLECTION", err.Error())
			return
		}
		s.editCategory(sc, o)
		s.editAttributes(sc.Name, name, kind, &o.Attributes)
	case ecr.KindRelationship:
		r := &ecr.RelationshipSet{Name: name}
		if err := sc.AddRelationship(r); err != nil {
			s.notify("SCHEMA COLLECTION", err.Error())
			return
		}
		s.editRelationship(sc, r)
		s.editAttributes(sc.Name, name, kind, &r.Attributes)
	}
	s.registerNewAttrs(sc)
}

// registerNewAttrs keeps the equivalence registry aware of every attribute.
func (s *Session) registerNewAttrs(sc *ecr.Schema) {
	s.ws.Registry().RegisterSchema(sc)
}

// editCategory drives the Category Information Collection Screen.
func (s *Session) editCategory(sc *ecr.Schema, o *ecr.ObjectClass) {
	for {
		s.io.Display(categoryCollectionScreen(sc.Name, o).Text())
		line, ok := s.io.ReadLine("Choose: (A)dd (D)elete (E)xit : ")
		if !ok {
			return
		}
		switch choice(line) {
		case "a":
			parent, ok := s.readNonEmpty("Parent object class => ")
			if !ok {
				return
			}
			o.Parents = append(o.Parents, parent)
		case "d":
			parent, ok := s.readNonEmpty("Parent to remove => ")
			if !ok {
				return
			}
			for i, p := range o.Parents {
				if p == parent {
					o.Parents = append(o.Parents[:i], o.Parents[i+1:]...)
					break
				}
			}
		case "e", "x":
			return
		}
	}
}

// editRelationship drives the Relationship Information Collection Screen
// (Screen 4).
func (s *Session) editRelationship(sc *ecr.Schema, r *ecr.RelationshipSet) {
	for {
		s.io.Display(relationshipCollectionScreen(sc.Name, r).Text())
		line, ok := s.io.ReadLine("Choose: (A)dd (D)elete (E)xit : ")
		if !ok {
			return
		}
		switch choice(line) {
		case "a":
			object, ok := s.readNonEmpty("Participating object class => ")
			if !ok {
				return
			}
			cardLine, ok := s.io.ReadLine("Cardinality (min,max; max may be n) [0,n] => ")
			if !ok {
				return
			}
			card, err := parseCard(cardLine)
			if err != nil {
				s.notify("SCHEMA COLLECTION", err.Error())
				continue
			}
			part := ecr.Participation{Object: object, Card: card}
			if _, dup := r.Participant(object); dup {
				role, ok := s.readNonEmpty("Role (object participates twice) => ")
				if !ok {
					return
				}
				part.Role = role
			}
			r.Participants = append(r.Participants, part)
		case "d":
			object, ok := s.readNonEmpty("Participant to remove => ")
			if !ok {
				return
			}
			for i, p := range r.Participants {
				if p.Object == object {
					r.Participants = append(r.Participants[:i], r.Participants[i+1:]...)
					break
				}
			}
		case "e", "x":
			return
		}
	}
}

// parseCard reads "min,max" with "n" for unbounded; empty means (0,n).
func parseCard(line string) (ecr.Cardinality, error) {
	line = strings.TrimSpace(strings.Trim(strings.TrimSpace(line), "()"))
	if line == "" {
		return ecr.Cardinality{Min: 0, Max: ecr.N}, nil
	}
	parts := strings.Split(line, ",")
	if len(parts) != 2 {
		return ecr.Cardinality{}, errBadCard(line)
	}
	minPart := strings.TrimSpace(parts[0])
	maxPart := strings.TrimSpace(parts[1])
	minV, err := strconv.Atoi(minPart)
	if err != nil {
		return ecr.Cardinality{}, errBadCard(line)
	}
	maxV := ecr.N
	if !strings.EqualFold(maxPart, "n") {
		maxV, err = strconv.Atoi(maxPart)
		if err != nil {
			return ecr.Cardinality{}, errBadCard(line)
		}
	}
	c := ecr.Cardinality{Min: minV, Max: maxV}
	if !c.Valid() {
		return ecr.Cardinality{}, errBadCard(line)
	}
	return c, nil
}

type badCardError string

func (e badCardError) Error() string {
	return "bad cardinality " + string(e) + " (want min,max with 0 <= min <= max, max > 0 or n)"
}

func errBadCard(line string) error { return badCardError(line) }

// editAttributes drives the Attribute Information Collection Screen
// (Screen 5) over a structure's attribute list.
func (s *Session) editAttributes(schema, object string, kind ecr.Kind, attrs *[]ecr.Attribute) {
	scroll := 0
	for {
		s.io.Display(attributeCollectionScreen(schema, object, kind, *attrs, scroll).Text())
		line, ok := s.io.ReadLine("Choose: (S)croll (A)dd (D)elete (E)xit : ")
		if !ok {
			return
		}
		switch choice(line) {
		case "s":
			scroll += 5
			if scroll > len(*attrs) {
				scroll = 0
			}
		case "a":
			name, ok := s.readNonEmpty("Attribute name => ")
			if !ok {
				return
			}
			domain, ok := s.readNonEmpty("Domain => ")
			if !ok {
				return
			}
			keyLine, ok := s.io.ReadLine("Key (y/n) [n] => ")
			if !ok {
				return
			}
			*attrs = append(*attrs, ecr.Attribute{
				Name:   name,
				Domain: domain,
				Key:    strings.EqualFold(strings.TrimSpace(keyLine), "y"),
			})
		case "d":
			name, ok := s.readNonEmpty("Attribute to delete => ")
			if !ok {
				return
			}
			for i, a := range *attrs {
				if a.Name == name {
					*attrs = append((*attrs)[:i], (*attrs)[i+1:]...)
					break
				}
			}
		case "e", "x":
			return
		}
	}
}

// notify shows a message screen and waits for enter.
func (s *Session) notify(phase, msg string) {
	s.io.Display(messageScreen(phase, msg).Text())
	s.io.ReadLine("Press enter to continue => ")
}
