package main

import (
	"math/rand"
	"strings"
)

// The seeds of one invocation: corpora use the benchmark seed itself,
// fresh (non-corpus) query strings a seed no corpus uses, and typo
// mutations and op choices their own generator streams.
func freshSeed(seed int64) int64 { return seed ^ (1 << 40) }
func mutSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7919 + 17
}

// mixed generates n strings of a corpus as k equal parts, each from its
// own generator seed derived from seed. One generator seed fixes a whole
// vocabulary, and on the query-log and author+title generators the few
// dominant tokens of a single vocabulary move search and join cost 2-4x
// from seed to seed; k vocabularies per corpus keep every run's cost near
// the typical one while each part keeps the generator's string lengths
// and duplicate rate.
func mixed(gen func(n int, seed int64) []string, n, k int, seed int64) []string {
	out := make([]string, 0, n)
	for i := range k {
		out = append(out, gen(n/k, seed*int64(k)+int64(i))...)
	}
	return out
}

const alphabet = "abcdefghijklmnopqrstuvwxyz "

// mutate applies edits random single-character edits (substitute,
// insert or delete) to s.
func mutate(rng *rand.Rand, s string, edits int) string {
	b := []byte(s)
	for range edits {
		c := alphabet[rng.Intn(len(alphabet))]
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0:
			b[rng.Intn(len(b))] = c
		case op == 1 || len(b) < 2:
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{c}, b[i:]...)...)
		default:
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		}
	}
	out := strings.TrimSpace(string(b))
	if out == "" {
		return s
	}
	return out
}

// queryStream builds n lookup queries: each is, with equal chance, a
// corpus string with 1..tau typos or the next fresh string from a
// generator seeded apart from the corpus.
func queryStream(rng *rand.Rand, corpus, fresh []string, n, tau int) []string {
	out := make([]string, 0, n)
	next := 0
	for len(out) < n {
		if rng.Intn(2) == 0 || next >= len(fresh) {
			out = append(out, mutate(rng, corpus[rng.Intn(len(corpus))], 1+rng.Intn(tau)))
			continue
		}
		out = append(out, fresh[next])
		next++
	}
	return out
}

// streamProps are the measured properties of the queries a run issued.
type streamProps struct {
	Issued      int     `json:"issued"`
	HitShare    float64 `json:"hit_share"`    // queries answered with >= 1 match
	RepeatShare float64 `json:"repeat_share"` // queries whose string was issued before in the run
}

func measureStream(queries []string, hits []int) streamProps {
	if len(queries) == 0 {
		return streamProps{}
	}
	seen := make(map[string]struct{}, len(queries))
	withHits := 0
	for i, q := range queries {
		seen[q] = struct{}{}
		if hits[i] > 0 {
			withHits++
		}
	}
	n := float64(len(queries))
	return streamProps{
		Issued:      len(queries),
		HitShare:    float64(withHits) / n,
		RepeatShare: 1 - float64(len(seen))/n,
	}
}
