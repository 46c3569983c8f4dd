package server

import (
	"errors"
	"net/http"

	"repro/internal/ecr"
	"repro/internal/instance"
	"repro/internal/integrate"
	"repro/internal/mapping"
	"repro/internal/translate"
)

// --- saved integrations ---

// integrationsRequest names an integration to run and persist: the paper's
// integrator output — integrated schema plus mapping table — saved so
// requests can be translated through it afterwards.
type integrationsRequest struct {
	Name    string `json:"name"`
	Schema1 string `json:"schema1"`
	Schema2 string `json:"schema2"`
}

func (s *Server) handleIntegrationsPost(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	var req integrationsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	info, err := ws.store.SaveIntegration(req.Name, req.Schema1, req.Schema2)
	if err != nil {
		var ierr *integrate.Error
		if errors.As(err, &ierr) {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleIntegrationsList(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	list := ws.store.Integrations()
	if list == nil {
		list = []IntegrationInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"integrations": list})
}

func (s *Server) handleIntegrationGet(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	schema, table, err := ws.store.Integration(name)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":     name,
		"schema":   schema,
		"ddl":      ecr.FormatSchema(schema),
		"mappings": table,
	})
}

// --- instance rows ---

// rowsRequest loads instance rows into one structure of a schema — a
// component schema, or the materialized schema of a saved integration.
type rowsRequest struct {
	Schema    string         `json:"schema"`
	Structure string         `json:"structure"`
	Rows      []instance.Row `json:"rows"`
}

func (s *Server) handleRowsPost(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	var req rowsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	total, err := ws.store.LoadRows(req.Schema, req.Structure, req.Rows)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"schema":    req.Schema,
		"structure": req.Structure,
		"inserted":  len(req.Rows),
		"total":     total,
	})
}

// --- query translation ---

// predicateJSON and queryJSON are the wire form of a mapping.Query.
type predicateJSON struct {
	Attr  string `json:"attr"`
	Op    string `json:"op"`
	Value string `json:"value"`
}

type queryJSON struct {
	Schema  string          `json:"schema"`
	Object  string          `json:"object"`
	Project []string        `json:"project,omitempty"`
	Where   []predicateJSON `json:"where,omitempty"`
}

func (q queryJSON) toQuery() mapping.Query {
	out := mapping.Query{Schema: q.Schema, Object: q.Object, Project: q.Project}
	for _, p := range q.Where {
		out.Where = append(out.Where, mapping.Predicate{Attr: p.Attr, Op: p.Op, Value: p.Value})
	}
	return out
}

func fromQuery(q mapping.Query) queryJSON {
	out := queryJSON{Schema: q.Schema, Object: q.Object, Project: q.Project}
	for _, p := range q.Where {
		out.Where = append(out.Where, predicateJSON{Attr: p.Attr, Op: p.Op, Value: p.Value})
	}
	return out
}

// queryRequest translates (and executes, when instance rows are loaded) one
// query through a saved integration's mapping table. An empty direction
// defaults by the query's schema: queries against the integrated schema fan
// out to the components, anything else is lifted view-to-integrated.
type queryRequest struct {
	Integration string    `json:"integration"`
	Direction   string    `json:"direction,omitempty"`
	Query       queryJSON `json:"query"`
}

// queryResponse returns the rewritten queries (structured and rendered),
// plus the merged rows when the instance stores were loaded to execute them.
type queryResponse struct {
	Integration string         `json:"integration"`
	Direction   string         `json:"direction"`
	Queries     []queryJSON    `json:"queries"`
	Rendered    []string       `json:"rendered"`
	Skipped     []string       `json:"skipped,omitempty"`
	Executed    bool           `json:"executed"`
	Rows        []instance.Row `json:"rows,omitempty"`
	Notes       []string       `json:"notes,omitempty"`
}

func (s *Server) handleQueryPost(ws *Workspace, w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, err := ws.store.TranslateQuery(req.Integration, req.Query.toQuery(), req.Direction)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	s.metrics.ObserveQueryTranslation(boundedDirection(res.Direction))
	resp := queryResponse{
		Integration: req.Integration,
		Direction:   res.Direction,
		Queries:     []queryJSON{},
		Rendered:    []string{},
		Skipped:     res.Skipped,
		Executed:    res.Executed,
		Rows:        res.Rows,
		Notes:       res.Notes,
	}
	for _, q := range res.Queries {
		resp.Queries = append(resp.Queries, fromQuery(q))
		resp.Rendered = append(resp.Rendered, q.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- bounded metric labels ---

// boundedFormat clamps a schema format to the registered frontend names, so
// the per-format parse counter cannot grow without bound.
//
//sit:boundedlabel
func boundedFormat(format string) string {
	for _, f := range translate.Formats() {
		if f == format {
			return format
		}
	}
	return "other"
}

// boundedDirection clamps a translation direction to the two defined
// directions.
//
//sit:boundedlabel
func boundedDirection(direction string) string {
	switch direction {
	case DirViewToIntegrated, DirIntegratedToComponents:
		return direction
	}
	return "other"
}
