package server

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/equivalence"
	"repro/internal/resemblance"
	"repro/internal/similarity"
)

// The design loop re-reads the resemblance ranking and the ACS/OCS matrix
// after every equivalence it declares. The ranking of a 40×40 pair is a
// ~360 KB body, and writing it through writeJSON (reflection, a compact
// pass, then an indent pass) cost ~40× computing it. The appenders below
// write the two bodies in one pass into a reused buffer; the ranking is
// written from its sparse form (rankedBody), so no pair is built for its
// ~95% zero cells. Their output is byte-for-byte what writeJSON writes for
// map[string]any{"pairs": pairs} and map[string]any{"matrix": m}:
// encoding/json's string escaping (with HTML escaping) and float format,
// null for a nil slice, a two-space indent and the trailing newline.
// jsonbody_test.go and ranking_body_test.go hold writeJSON as the oracle.

// bodyBufs is a small free list of response buffers. It is a channel
// rather than a sync.Pool so that buffers survive garbage collections (a
// design session reads a ranking every few milliseconds) and a Put is
// never dropped at random, as sync.Pool does under the race detector. A
// buffer grown past maxPooledBody is not kept, so one huge ranking does
// not pin its memory; the list holds at most 4 MiB.
var bodyBufs = make(chan []byte, 4)

const maxPooledBody = 1 << 20

func getBody() []byte {
	select {
	case b := <-bodyBufs:
		return b
	default:
		return make([]byte, 0, 64<<10)
	}
}

func putBody(b []byte) {
	if cap(b) > maxPooledBody {
		return
	}
	select {
	case bodyBufs <- b[:0]:
	default:
	}
}

// writeRanking writes the body of GET /resemblance.
func writeRanking(w http.ResponseWriter, rb *rankedBody) {
	// A pair takes ~225 bytes; reserving 256 turns a ranking too big for
	// any kept buffer into one allocation, not a chain of regrowths.
	b, err := appendPairsBody(slices.Grow(getBody(), 256*rb.Len()), rb.Head, rb)
	writeBody(w, b, err)
	putBody(b)
}

// writeMatrix writes the body of GET /matrix.
func writeMatrix(w http.ResponseWriter, m *equivalence.Matrix) {
	b := appendMatrixBody(getBody(), m)
	writeBody(w, b, nil)
	putBody(b)
}

// writeBody sends a 200 with the appended body or, like writeJSON, a 500
// with the error when the body could not be encoded (a NaN or infinite
// ratio).
func writeBody(w http.ResponseWriter, b []byte, err error) {
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// rankedBody is a cached ranking with the pieces its zero pairs are put
// together from. A zero pair's body is its row's first piece, its
// column's first piece, its row's second piece, its column's second
// piece, the smaller attribute count and zeroTail: only the count is
// formatted per pair. The pieces are quoted once, when the ranking is
// computed, and cost O(structures) bytes; the pairs' bytes are not kept.
type rankedBody struct {
	*similarity.Ranking
	// rows holds each row's two pieces back to back: row i's are
	// rows[rowCut[2i]:rowCut[2i+1]] and rows[rowCut[2i+1]:rowCut[2i+2]].
	// cols and colCut are laid out the same way.
	rows, cols     []byte
	rowCut, colCut []int
}

// zeroTail ends every zero pair: a zero pair's ratio is 0.
const zeroTail = ",\n      \"Ratio\": 0\n    }"

func newRankedBody(r *similarity.Ranking) *rankedBody {
	rb := &rankedBody{Ranking: r}
	rb.rows, rb.rowCut = quotePieces(r.Rows, 128+len(r.Rows.Schema)+len(r.Cols.Schema), func(dst []byte, i int) ([]byte, int) {
		dst = append(dst, "{\n      \"Schema1\": "...)
		dst = appendString(dst, r.Rows.Schema)
		dst = append(dst, ",\n      \"Object1\": "...)
		dst = appendString(dst, r.Rows.Names[i])
		dst = append(dst, ",\n      \"Schema2\": "...)
		dst = appendString(dst, r.Cols.Schema)
		dst = append(dst, ",\n      \"Object2\": "...)
		cut := len(dst)
		dst = append(dst, ",\n      \"Kind1\": "...)
		dst = appendString(dst, r.Rows.Kinds[i].String())
		return append(dst, ",\n      \"Kind2\": "...), cut
	})
	rb.cols, rb.colCut = quotePieces(r.Cols, 64, func(dst []byte, j int) ([]byte, int) {
		dst = appendString(dst, r.Cols.Names[j])
		cut := len(dst)
		dst = appendString(dst, r.Cols.Kinds[j].String())
		return append(dst, ",\n      \"Equivalent\": 0,\n      \"SmallerAttrs\": "...), cut
	})
	return rb
}

// quotePieces appends the two pieces of every structure of sd into one
// buffer and returns it with the cuts between them. piece appends
// structure k's pieces and says where the first ends; each structure's
// pieces take about its name's length plus perName bytes.
func quotePieces(sd similarity.Side, perName int, piece func(dst []byte, k int) ([]byte, int)) ([]byte, []int) {
	size := 0
	for _, name := range sd.Names {
		size += len(name) + perName
	}
	buf := make([]byte, 0, size)
	cuts := make([]int, 1, 2*len(sd.Names)+1)
	for k := range sd.Names {
		var cut int
		buf, cut = piece(buf, k)
		cuts = append(cuts, cut, len(buf))
	}
	return buf, cuts
}

// appendPairsBody appends {"pairs": list} as writeJSON renders it, where
// list is head followed, when zeros is not nil, by zeros' zero pairs in
// declaration order. It fails, as encoding/json does, when a ratio in
// head is NaN or infinite.
func appendPairsBody(dst []byte, head []resemblance.Pair, zeros *rankedBody) ([]byte, error) {
	for i := range head {
		if r := head[i].Ratio; math.IsNaN(r) || math.IsInf(r, 0) {
			return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(r), Str: strconv.FormatFloat(r, 'g', -1, 64)}
		}
	}
	dst = append(dst, "{\n  \"pairs\": "...)
	switch {
	case zeros == nil && head == nil:
		dst = append(dst, "null"...)
	case len(head) == 0 && (zeros == nil || zeros.Len() == 0):
		dst = append(dst, "[]"...)
	default:
		// Every element goes after ",\n    "; the first comma then
		// becomes the opening bracket.
		open := len(dst)
		for _, p := range head {
			dst = append(dst, ",\n    "...)
			dst = appendPair(dst, p)
		}
		if zeros != nil {
			dst = zeros.appendZeroPairs(dst)
		}
		dst[open] = '['
		dst = append(dst, "\n  ]"...)
	}
	return append(dst, "\n}\n"...), nil
}

// appendZeroPairs appends the ranking's zero pairs, each after ",\n    ",
// in row-major order.
func (rb *rankedBody) appendZeroPairs(dst []byte) []byte {
	for i, a1 := range rb.Rows.Attrs {
		row1, row2 := rb.rows[rb.rowCut[2*i]:rb.rowCut[2*i+1]], rb.rows[rb.rowCut[2*i+1]:rb.rowCut[2*i+2]]
		for j, a2 := range rb.Cols.Attrs {
			if !rb.Zero(i, j) {
				continue
			}
			dst = append(dst, ",\n    "...)
			dst = append(dst, row1...)
			dst = append(dst, rb.cols[rb.colCut[2*j]:rb.colCut[2*j+1]]...)
			dst = append(dst, row2...)
			dst = append(dst, rb.cols[rb.colCut[2*j+1]:rb.colCut[2*j+2]]...)
			dst = appendInt(dst, min(a1, a2))
			dst = append(dst, zeroTail...)
		}
	}
	return dst
}

// appendPair appends one ranked pair, its opening brace at indent depth 2.
func appendPair(dst []byte, p resemblance.Pair) []byte {
	dst = append(dst, "{\n      \"Schema1\": "...)
	dst = appendString(dst, p.Schema1)
	dst = append(dst, ",\n      \"Object1\": "...)
	dst = appendString(dst, p.Object1)
	dst = append(dst, ",\n      \"Schema2\": "...)
	dst = appendString(dst, p.Schema2)
	dst = append(dst, ",\n      \"Object2\": "...)
	dst = appendString(dst, p.Object2)
	dst = append(dst, ",\n      \"Kind1\": "...)
	dst = appendString(dst, p.Kind1.String())
	dst = append(dst, ",\n      \"Kind2\": "...)
	dst = appendString(dst, p.Kind2.String())
	dst = append(dst, ",\n      \"Equivalent\": "...)
	dst = appendInt(dst, p.Equivalent)
	dst = append(dst, ",\n      \"SmallerAttrs\": "...)
	dst = appendInt(dst, p.SmallerAttrs)
	dst = append(dst, ",\n      \"Ratio\": "...)
	dst = appendFloat(dst, p.Ratio)
	return append(dst, "\n    }"...)
}

// appendMatrixBody appends {"matrix": m} as writeJSON renders it.
func appendMatrixBody(dst []byte, m *equivalence.Matrix) []byte {
	dst = append(dst, "{\n  \"matrix\": "...)
	if m == nil {
		return append(dst, "null\n}\n"...)
	}
	dst = append(dst, "{\n    \"schema1\": "...)
	dst = appendString(dst, m.Schema1)
	dst = append(dst, ",\n    \"schema2\": "...)
	dst = appendString(dst, m.Schema2)
	dst = append(dst, ",\n    \"rows\": "...)
	dst = appendList(dst, m.Rows, 2, appendString)
	dst = append(dst, ",\n    \"cols\": "...)
	dst = appendList(dst, m.Cols, 2, appendString)
	dst = append(dst, ",\n    \"counts\": "...)
	dst = appendList(dst, m.Counts, 2, func(dst []byte, row []int) []byte {
		return appendList(dst, row, 3, appendInt)
	})
	return append(dst, "\n  }\n}\n"...)
}

// appendList appends xs as an indented array whose opening bracket sits at
// indent depth (two spaces a level): null when xs is nil, [] when empty.
func appendList[T any](dst []byte, xs []T, depth int, elem func([]byte, T) []byte) []byte {
	switch {
	case xs == nil:
		return append(dst, "null"...)
	case len(xs) == 0:
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendNewline(dst, depth+1)
		dst = elem(dst, x)
	}
	dst = appendNewline(dst, depth)
	return append(dst, ']')
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

func appendInt(dst []byte, n int) []byte {
	return strconv.AppendInt(dst, int64(n), 10)
}

// appendFloat appends a finite f in encoding/json's float64 format: 'f',
// or 'e' below 1e-6 and from 1e21 with a one-digit negative exponent
// unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping on: <, > and & as \u00XX, the short escapes \b \f \n \r \t,
// \u00XX for the other control bytes, \ufffd for each invalid UTF-8 byte,
// and \u2028 and \u2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
