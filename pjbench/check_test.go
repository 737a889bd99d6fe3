package main

import (
	"encoding/json"
	"strings"
	"testing"

	"passjoin"
)

var checkCorpus = []string{"jon smith", "john smith", "jane smyth", "alice jones", "alice jonas"}

func TestCheckIDDist(t *testing.T) {
	want := []hit{{ID: 0, Dist: 1}, {ID: 1, Dist: 0}}
	if err := checkIDDist("q", []hit{{ID: 1, Dist: 0}, {ID: 0, Dist: 1}}, want); err != nil {
		t.Errorf("a correct response in another order failed: %v", err)
	}
	for name, got := range map[string][]hit{
		"wrong dist":    {{ID: 0, Dist: 2}, {ID: 1, Dist: 0}},
		"missing match": {{ID: 1, Dist: 0}},
		"extra match":   {{ID: 0, Dist: 1}, {ID: 1, Dist: 0}, {ID: 2, Dist: 2}},
	} {
		if checkIDDist("q", got, want) == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestCheckStringDist(t *testing.T) {
	want := []hit{{ID: 3, String: "alice jones", Dist: 0}, {ID: 4, String: "alice jonas", Dist: 1}}
	// Ids are assigned by the serving side, so only (string, dist) counts.
	if err := checkStringDist("q", []hit{{ID: 9, String: "alice jonas", Dist: 1}, {ID: 7, String: "alice jones", Dist: 0}}, want); err != nil {
		t.Errorf("a correct response failed: %v", err)
	}
	if checkStringDist("q", []hit{{ID: 3, String: "alice jones", Dist: 0}, {ID: 4, String: "alice jonas", Dist: 0}}, want) == nil {
		t.Error("a wrong distance passed")
	}
	if checkStringDist("q", []hit{{ID: 3, String: "alice jones", Dist: 0}, {ID: 3, String: "alice jones", Dist: 0}}, want) == nil {
		t.Error("a duplicated match passed")
	}
}

func TestCheckIDs(t *testing.T) {
	if err := checkIDs("q", []hit{{ID: 2}, {ID: 1}}, []int{1, 2}); err != nil {
		t.Errorf("a correct response failed: %v", err)
	}
	if checkIDs("q", []hit{{ID: 1}}, []int{1, 2}) == nil {
		t.Error("a response missing a brute-force id passed")
	}
}

func TestChurnCheck(t *testing.T) {
	v := churnView{tau: 2, base: checkCorpus, inserted: map[int]string{5: "jon smyth"}}
	q := "jon smith"
	base := []passjoin.Match{{ID: 0, Dist: 0}, {ID: 1, Dist: 1}}
	never := func(int) bool { return false }
	good := []hit{{ID: 0, String: "jon smith", Dist: 0}, {ID: 1, String: "john smith", Dist: 1}, {ID: 5, String: "jon smyth", Dist: 1}}
	if err := v.check(q, good, base, never); err != nil {
		t.Errorf("a correct response failed: %v", err)
	}
	cases := map[string]struct {
		got     []hit
		deleted func(int) bool
	}{
		"wrong dist":       {[]hit{{ID: 0, String: "jon smith", Dist: 1}, {ID: 1, String: "john smith", Dist: 1}}, never},
		"over tau":         {[]hit{{ID: 0, String: "jon smith", Dist: 0}, {ID: 1, String: "john smith", Dist: 1}, {ID: 3, String: "alice jones", Dist: 9}}, never},
		"missing base":     {[]hit{{ID: 0, String: "jon smith", Dist: 0}}, never},
		"unknown document": {[]hit{{ID: 0, String: "jon smith", Dist: 0}, {ID: 1, String: "john smith", Dist: 1}, {ID: 6, String: "jon smit", Dist: 1}}, never},
		"wrong string":     {[]hit{{ID: 0, String: "jon smith", Dist: 0}, {ID: 1, String: "jon smyth", Dist: 1}}, never},
		"deleted document": {good, func(id int) bool { return id == 5 }},
	}
	for name, c := range cases {
		if v.check(q, c.got, base, c.deleted) == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func joinBody(t *testing.T, pairs ...joinPair) []byte {
	var b strings.Builder
	for _, p := range pairs {
		line, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func TestCheckJoin(t *testing.T) {
	want, err := referenceJoin(checkCorpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference join found no pairs")
	}
	// Streams arrive in any order.
	rev := make([]joinPair, len(want))
	for i, p := range want {
		rev[len(want)-1-i] = p
	}
	if err := checkJoin(joinBody(t, rev...), checkCorpus, want); err != nil {
		t.Errorf("a correct stream failed: %v", err)
	}
	wrongDist := append([]joinPair{}, want...)
	wrongDist[0].Dist++
	wrongLine := append([]joinPair{}, want...)
	wrongLine[0].Left = "someone else"
	extra := append(append([]joinPair{}, want...), joinPair{R: 0, S: 3, Left: checkCorpus[0], Right: checkCorpus[3], Dist: 7})
	for name, body := range map[string][]byte{
		"missing pair": joinBody(t, want[1:]...),
		"extra pair":   joinBody(t, extra...),
		"wrong dist":   joinBody(t, wrongDist...),
		"wrong line":   joinBody(t, wrongLine...),
		"malformed":    []byte("{\"r\":0,\n"),
	} {
		if checkJoin(body, checkCorpus, want) == nil {
			t.Errorf("%s passed", name)
		}
	}
}
