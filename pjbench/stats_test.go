package main

import (
	"strings"
	"testing"
	"time"
)

func TestMinSamples(t *testing.T) {
	for p, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000, 0.999: 10000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	ds := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Microsecond // descending, so sorting matters
		}
		return out
	}
	if v, ok := percentile(ds(999), 0.99); ok || v != 990 {
		t.Errorf("999 samples: p99 = %v resolved=%v, want 990 unresolved", v, ok)
	}
	if v, ok := percentile(ds(1000), 0.99); !ok || v != 990 {
		t.Errorf("1000 samples: p99 = %v resolved=%v, want 990 resolved", v, ok)
	}
	if v, ok := percentile(ds(8), 0.99); ok || v != 8 {
		t.Errorf("8 samples: p99 = %v resolved=%v, want the maximum, unresolved", v, ok)
	}
	if v, ok := percentile(ds(20), 0.5); !ok || v != 10 {
		t.Errorf("20 samples: p50 = %v resolved=%v, want 10 resolved", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("no samples resolved a percentile")
	}
}

func TestTimingIgnoresOneNoisyChunk(t *testing.T) {
	t0 := time.Now()
	var ss []sample
	for i := range 5000 {
		lat := 100 * time.Microsecond
		if i%50 == 0 {
			lat = 1000 * time.Microsecond // 2% tail everywhere
		}
		if i >= 2000 && i < 3000 && i%10 == 0 {
			lat = 50 * time.Millisecond // a burst confined to one chunk
		}
		ss = append(ss, sample{end: t0.Add(time.Duration(i) * time.Millisecond), lat: lat})
	}
	tm := timingOf(ss, t0.Add(-time.Millisecond))
	if !tm.Resolved[0.99] || tm.Chunks != 5 || tm.US[0.99] != 1000 || tm.US[0.5] != 100 {
		t.Errorf("timing = %+v, want p50 100 and p99 1000 over 5 resolved chunks", tm)
	}
	if tm.PerS < 999 || tm.PerS > 1001 {
		t.Errorf("rate = %v per second, want 1000", tm.PerS)
	}
	if tm := timingOf(ss[:999], t0); tm.Resolved[0.99] || tm.Chunks != 10 {
		t.Errorf("999 samples: %+v, want 10 small unresolved chunks", tm)
	}
	// Fifteen slow operations, one of them stalled: the stall sets one
	// small chunk's maximum, not the result.
	var joins []sample
	for i := range 15 {
		lat := time.Second + time.Duration(i)*time.Millisecond
		if i == 7 {
			lat = 3 * time.Second
		}
		joins = append(joins, sample{end: t0.Add(time.Duration(i) * time.Second), lat: lat})
	}
	if tm := timingOf(joins, t0); tm.Chunks != 3 || tm.Resolved[0.99] || tm.US[0.99] != 1_014_000 {
		t.Errorf("joins: %+v, want p99 1.014s over 3 unresolved chunks", tm)
	}
}

const scrapeBefore = `# HELP passjoin_http_request_duration_seconds Request latency.
# TYPE passjoin_http_request_duration_seconds histogram
passjoin_http_request_duration_seconds_bucket{route="/v1/search",le="0.001"} 10
passjoin_http_request_duration_seconds_sum{route="/v1/search"} 0.002
passjoin_http_request_duration_seconds_count{route="/v1/search"} 10
passjoin_http_request_duration_seconds_sum{route="/healthz"} 0.5
passjoin_http_request_duration_seconds_count{route="/healthz"} 1
go_gc_cycles_total 3
passjoin_cluster_requests_total{member="a",route="/v1/search",code="200"} 10
`

const scrapeAfter = `passjoin_http_request_duration_seconds_sum{route="/v1/search"} 0.032
passjoin_http_request_duration_seconds_count{route="/v1/search"} 110
passjoin_http_request_duration_seconds_sum{route="/healthz"} 0.9
passjoin_http_request_duration_seconds_count{route="/healthz"} 2
go_gc_cycles_total 5
passjoin_cluster_requests_total{member="a",route="/v1/search",code="200"} 60
passjoin_cluster_requests_total{member="b",route="/v1/search",code="200"} 48
passjoin_cluster_requests_total{member="b",route="/v1/search",code="error"} 2
passjoin_cluster_requests_total{member="b",route="/v1/docs",code="201"} 7
passjoin_cluster_partial_responses_total 1e-00
`

func TestPromDifferencing(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	mean, n := histMeanDelta(before, after, "passjoin_http_request_duration_seconds", `route="/v1/search"`)
	if n != 100 || mean < 0.0003-1e-12 || mean > 0.0003+1e-12 {
		t.Errorf("histogram delta: mean %v over %v, want 0.0003 over 100", mean, n)
	}
	if _, n := histMeanDelta(before, after, "passjoin_http_request_duration_seconds", `route="/v1/batch"`); n != 0 {
		t.Errorf("absent series counted %v observations", n)
	}
	if d := delta(before, after, "go_gc_cycles_total"); d != 2 {
		t.Errorf("counter delta = %v, want 2", d)
	}
	if d := sumDelta(before, after, "passjoin_cluster_requests_total", `route="/v1/search"`); d != 100 {
		t.Errorf("summed search calls = %v, want 100 (series new since the first scrape count from zero)", d)
	}
	if d := sumDelta(before, after, "passjoin_cluster_requests_total", `member="b"`, `code="error"`); d != 2 {
		t.Errorf("summed errors of member b = %v, want 2", d)
	}
	if d := delta(before, after, "passjoin_cluster_partial_responses_total"); d != 1 {
		t.Errorf("partials = %v, want 1", d)
	}
	if _, err := parseProm(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tpassjoind\nVmPeak:\t 1290000 kB\nVmHWM:\t   95448 kB\nVmRSS:\t   90000 kB\n"
	if kb, err := parseVmHWM(status); err != nil || kb != 95448 {
		t.Errorf("parseVmHWM = %d, %v; want 95448", kb, err)
	}
	if _, err := parseVmHWM("Name:\tx\nVmRSS:\t 1 kB\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseVmHWM("VmHWM:\t 12 MB\n"); err == nil {
		t.Error("VmHWM in an unexpected unit parsed")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The name holds a space and a ')', as a process may name itself.
	stat := "4242 (pass joind) x) S 1 4242 4242 0 -1 4194560 9000 0 0 0 1234 567 0 0 20 0 9 0 100 0 0\n"
	if s, err := parseStatCPU(stat); err != nil || s != 18.01 {
		t.Errorf("parseStatCPU = %v, %v; want 18.01", s, err)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2 3"); err == nil {
		t.Error("parseStatCPU accepted a truncated stat line")
	}
}
