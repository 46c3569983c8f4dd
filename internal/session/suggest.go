package session

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dictionary"
	"repro/internal/resemblance"
	"repro/internal/tui"
)

// runSuggestions drives main-menu task 7, the "syntactic and semantic
// processing enhancements" of the paper's future-work section: string
// matching over attribute names, the synonym/antonym dictionary, and the
// full attribute equivalence theory propose candidate equivalent
// attributes, which the DDA reviews and accepts into the registry —
// specification stays with the DDA, as the paper requires.
func (s *Session) runSuggestions() {
	const phase = "EQUIVALENCE SUGGESTIONS"
	n1, n2, ok := s.pickSchemaPair(phase)
	if !ok {
		return
	}
	s1, s2 := s.ws.Schema(n1), s.ws.Schema(n2)
	dict := dictionary.Builtin()
	threshold := 0.75
	for {
		cands := resemblance.SuggestEquivalencesTheory(
			s1, s2, resemblance.DefaultWeights(), dict, threshold)
		// Drop candidates already declared equivalent.
		fresh := cands[:0]
		for _, c := range cands {
			if !s.ws.Registry().Equivalent(c.A, c.B) {
				fresh = append(fresh, c)
			}
		}
		cands = fresh
		s.io.Display(suggestionScreen(cands, threshold).Text())
		line, ok := s.io.ReadLine("Accept <#>, (A)ll, (T)hreshold <t>, or (E)xit : ")
		if !ok {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch choice(fields[0]) {
		case "e", "x":
			return
		case "a":
			accepted := 0
			for _, c := range cands {
				if err := s.ws.Registry().Declare(c.A, c.B); err == nil {
					accepted++
				}
			}
			s.notify(phase, fmt.Sprintf("accepted %d suggested equivalences", accepted))
		case "t":
			if len(fields) != 2 {
				s.notify(phase, "usage: t <threshold between 0 and 1>")
				continue
			}
			t, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || t < 0 || t > 1 {
				s.notify(phase, "threshold must be a number between 0 and 1")
				continue
			}
			threshold = t
		default:
			n, err := strconv.Atoi(fields[0])
			if err != nil || n < 1 || n > len(cands) {
				s.notify(phase, "usage: <candidate #>, a, t <threshold>, or e")
				continue
			}
			c := cands[n-1]
			if err := s.ws.Registry().Declare(c.A, c.B); err != nil {
				s.notify(phase, err.Error())
				continue
			}
		}
	}
}

// suggestionScreen lists the candidate equivalent attribute pairs with
// their scores and the theory's domain relation.
func suggestionScreen(cands []resemblance.TheoryCandidate, threshold float64) *tui.Screen {
	var cells [][]string
	cells = append(cells, []string{"Attribute 1", "Attribute 2", "Score", "Domains"})
	for _, c := range cands {
		cells = append(cells, []string{
			c.A.String(),
			c.B.String(),
			fmt.Sprintf("%.2f", c.Score),
			c.Classification.Relation.String(),
		})
	}
	aligned := tui.Columns(cells)
	rows := tui.NumberRows(aligned[1:], 1)
	if len(rows) == 0 {
		rows = []string{"(no candidates above the threshold)"}
	}
	return &tui.Screen{
		Phase:   "EQUIVALENCE SUGGESTIONS",
		Name:    "Candidate Equivalent Attributes Screen",
		Header:  []string{fmt.Sprintf("Threshold: %.2f   (string matching + dictionary + attribute theory)", threshold)},
		Windows: []*tui.Window{{Title: aligned[0], Rows: rows, Height: 12}},
		Menu:    "Accept <#>, (A)ll, (T)hreshold <t>, or (E)xit :",
	}
}
