package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"passjoin"
)

// hit is one match as the daemons' JSON carries it.
type hit struct {
	ID     int    `json:"id"`
	String string `json:"string"`
	Dist   int    `json:"dist"`
}

// searchBody is the reply of GET /v1/search on a node or a coordinator.
type searchBody struct {
	Matches []hit `json:"matches"`
	Partial bool  `json:"partial"`
}

func byIDDist(a, b hit) int {
	return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Dist, b.Dist))
}

func byStringDist(a, b hit) int {
	return cmp.Or(cmp.Compare(a.String, b.String), cmp.Compare(a.Dist, b.Dist))
}

func fromMatches(ms []passjoin.Match, corpus func(int) string) []hit {
	out := make([]hit, len(ms))
	for i, m := range ms {
		out[i] = hit{ID: m.ID, Dist: m.Dist, String: corpus(m.ID)}
	}
	return out
}

// checkIDDist compares a response with a reference answer by (id, dist).
func checkIDDist(q string, got, want []hit) error {
	g, w := slices.Clone(got), slices.Clone(want)
	slices.SortFunc(g, byIDDist)
	slices.SortFunc(w, byIDDist)
	if !slices.EqualFunc(g, w, func(a, b hit) bool { return a.ID == b.ID && a.Dist == b.Dist }) {
		return fmt.Errorf("query %q: got (id,dist) %v, reference %v", q, idDists(g), idDists(w))
	}
	return nil
}

// checkStringDist compares a response with a reference answer as a
// multiset of (string, dist), for responses whose ids the serving side
// assigns.
func checkStringDist(q string, got, want []hit) error {
	g, w := slices.Clone(got), slices.Clone(want)
	slices.SortFunc(g, byStringDist)
	slices.SortFunc(w, byStringDist)
	if !slices.EqualFunc(g, w, func(a, b hit) bool { return a.String == b.String && a.Dist == b.Dist }) {
		return fmt.Errorf("query %q: got (string,dist) %v, reference %v", q, strDists(g), strDists(w))
	}
	return nil
}

// checkIDs compares the ids of a response with a brute-force id set.
func checkIDs(q string, got []hit, want []int) error {
	g := make([]int, len(got))
	for i, h := range got {
		g[i] = h.ID
	}
	w := slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		return fmt.Errorf("query %q: got ids %v, brute force %v", q, g, w)
	}
	return nil
}

// churnView is what a churn search is checked against: the base corpus
// (never deleted), the documents the clients inserted by id, and the
// ids the querying client had already deleted when it sent the query.
type churnView struct {
	tau      int
	base     []string
	inserted map[int]string
}

// checkChurn checks one search of the churn workload: every match is a
// known document at its true distance within tau, none is a document
// the same client deleted before asking, and every base-corpus match of
// the reference is present.
func (v churnView) check(q string, got []hit, baseWant []passjoin.Match, deletedBefore func(id int) bool) error {
	seen := make(map[int]int, len(got))
	for _, h := range got {
		var doc string
		var ok bool
		if h.ID < len(v.base) {
			doc, ok = v.base[h.ID], h.ID >= 0
		} else {
			doc, ok = v.inserted[h.ID]
		}
		if !ok || doc != h.String {
			return fmt.Errorf("query %q: match id %d string %q is not a document the run wrote", q, h.ID, h.String)
		}
		if d := passjoin.EditDistance(q, h.String); d != h.Dist || d > v.tau {
			return fmt.Errorf("query %q: match id %d reports dist %d, true dist %d (tau %d)", q, h.ID, h.Dist, d, v.tau)
		}
		if deletedBefore(h.ID) {
			return fmt.Errorf("query %q: match id %d was deleted by this client before the query", q, h.ID)
		}
		seen[h.ID] = h.Dist
	}
	for _, m := range baseWant {
		if d, ok := seen[m.ID]; !ok || d != m.Dist {
			return fmt.Errorf("query %q: base document %d (dist %d) missing from the response", q, m.ID, m.Dist)
		}
	}
	return nil
}

// joinPair is one NDJSON record of a /v1/join/self stream.
type joinPair struct {
	R     int    `json:"r"`
	S     int    `json:"s"`
	Left  string `json:"left"`
	Right string `json:"right"`
	Dist  int    `json:"dist"`
}

// checkJoin compares a streamed self-join with the reference pair set
// (sorted by r, s, with true distances) over corpus.
func checkJoin(body []byte, corpus []string, want []joinPair) error {
	var got []joinPair
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var p joinPair
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("join stream: malformed line %q: %v", sc.Text(), err)
		}
		if p.R < 0 || p.S < 0 || p.R >= len(corpus) || p.S >= len(corpus) ||
			p.Left != corpus[p.R] || p.Right != corpus[p.S] {
			return fmt.Errorf("join stream: pair (%d,%d) does not match the uploaded lines", p.R, p.S)
		}
		got = append(got, p)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("join stream: %v", err)
	}
	slices.SortFunc(got, byPair)
	if len(got) != len(want) {
		return fmt.Errorf("join stream: %d pairs, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].R != want[i].R || got[i].S != want[i].S || got[i].Dist != want[i].Dist {
			return fmt.Errorf("join stream: pair %d is (%d,%d,d=%d), reference (%d,%d,d=%d)",
				i, got[i].R, got[i].S, got[i].Dist, want[i].R, want[i].S, want[i].Dist)
		}
	}
	return nil
}

func byPair(a, b joinPair) int { return cmp.Or(cmp.Compare(a.R, b.R), cmp.Compare(a.S, b.S)) }

// referenceJoin runs passjoin.SelfJoin and attaches true distances.
func referenceJoin(corpus []string, tau int) ([]joinPair, error) {
	pairs, err := passjoin.SelfJoin(corpus, tau)
	if err != nil {
		return nil, err
	}
	out := make([]joinPair, len(pairs))
	for i, p := range pairs {
		r, s := min(p.R, p.S), max(p.R, p.S)
		out[i] = joinPair{R: r, S: s, Left: corpus[r], Right: corpus[s], Dist: passjoin.EditDistance(corpus[r], corpus[s])}
	}
	slices.SortFunc(out, byPair)
	return out, nil
}

func idDists(hs []hit) [][2]int {
	out := make([][2]int, len(hs))
	for i, h := range hs {
		out[i] = [2]int{h.ID, h.Dist}
	}
	return out
}

func strDists(hs []hit) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = fmt.Sprintf("%q/%d", h.String, h.Dist)
	}
	return out
}
