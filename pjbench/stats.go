package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// beyond is the number of samples a reported percentile must have above
// it: a percentile p is resolved only over at least ceil(beyond/(1-p))
// samples, so p99 needs 1000 and the median 20.
const beyond = 10

// minSamples returns the sample count at which percentile p (0 < p < 1)
// is resolved under the beyond rule.
func minSamples(p float64) int {
	return int(math.Ceil(beyond/(1-p) - 1e-9))
}

// percentile returns the nearest-rank p-quantile of durations in
// microseconds and whether the sample count resolves it. Below the
// resolving count a high percentile reads as the maximum; the flag says
// so rather than hiding it.
func percentile(ds []time.Duration, p float64) (us float64, resolved bool) {
	if len(ds) == 0 {
		return 0, false
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return float64(s[rank]) / 1e3, len(s) >= minSamples(p)
}

// sample is one successful operation: when it completed and how long
// it took.
type sample struct {
	end time.Time
	lat time.Duration
}

// maxChunks bounds the chunks a run's samples are split into.
const maxChunks = 10

// chunks splits the samples, in completion order, into consecutive
// chunks of at least minPer samples each, at most maxChunks of them; with
// fewer than minPer samples there is one chunk.
func chunks(ss []sample, minPer int) [][]sample {
	s := slices.Clone(ss)
	slices.SortFunc(s, func(a, b sample) int { return a.end.Compare(b.end) })
	n := max(1, min(maxChunks, len(s)/max(minPer, 1)))
	out := make([][]sample, n)
	for c := range n {
		out[c] = s[c*len(s)/n : (c+1)*len(s)/n]
	}
	return out
}

// timing summarises one kind of operation of a run. Each figure is the
// median over chunks of the chunk's figure, so a burst of noise (on a
// shared host, CPU taken by other tenants) confined to a few chunks
// moves those chunks, not the result. Chunks hold at least
// minSamples(0.99) samples, so each chunk resolves its p99 whenever the
// run has that many samples at all.
type timing struct {
	US       map[float64]float64 // quantile -> microseconds
	Resolved map[float64]bool    // quantile -> whether each chunk resolves it
	PerS     float64             // completions per second
	N        int
	Chunks   int
}

// quantiles are the latency quantiles a timing reports.
var quantiles = []float64{0.5, 0.9, 0.99}

// minSmallChunk is the chunk size of runs too short to fill one chunk
// that resolves p99 (the joins of join-long): their chunk p99 is the
// chunk maximum, and the median over chunks keeps one stalled operation
// from setting the figure.
const minSmallChunk = 5

// timingOf summarises samples completed after start.
func timingOf(ss []sample, start time.Time) timing {
	per := minSamples(0.99)
	if len(ss) < per {
		per = minSmallChunk
	}
	cs := chunks(ss, per)
	t := timing{US: map[float64]float64{}, Resolved: map[float64]bool{}, N: len(ss), Chunks: len(cs)}
	perQ := map[float64][]float64{}
	var rates []float64
	prev := start
	for _, c := range cs {
		if len(c) == 0 {
			continue
		}
		for _, q := range quantiles {
			v, ok := percentile(lats(c), q)
			perQ[q] = append(perQ[q], v)
			t.Resolved[q] = ok
		}
		last := c[len(c)-1].end
		rates = append(rates, float64(len(c))/last.Sub(prev).Seconds())
		prev = last
	}
	for _, q := range quantiles {
		t.US[q] = median(perQ[q])
	}
	t.PerS = median(rates)
	return t
}

func lats(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func meanDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e3
}

// promSample is one series of a Prometheus text exposition: the metric
// name with its label set verbatim ({...} included) and the value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format into a map keyed
// by "name{labels}" exactly as exposed; comments are skipped.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// delta returns after[key] - before[key]; a series absent before counts
// from zero.
func delta(before, after promSample, key string) float64 {
	return after[key] - before[key]
}

// sumDelta sums the deltas of every series of metric name whose label
// set contains all of the given label pairs (each `k="v"`).
func sumDelta(before, after promSample, name string, labels ...string) float64 {
	total := 0.0
	for key, v := range after {
		series, lbl, _ := strings.Cut(key, "{")
		if series != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				match = false
				break
			}
		}
		if match {
			total += v - before[key]
		}
	}
	return total
}

// histMeanDelta returns the mean observation of histogram name{labels}
// between two scrapes, from its _sum and _count series, and the count.
func histMeanDelta(before, after promSample, name, labels string) (mean float64, count float64) {
	key := func(suffix string) string { return name + suffix + "{" + labels + "}" }
	n := delta(before, after, key("_count"))
	if n <= 0 {
		return 0, 0
	}
	return delta(before, after, key("_sum")) / n, n
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTicks = 100

// parseStatCPU extracts a process's CPU time, user plus system, in
// seconds from the text of /proc/<pid>/stat. The process name may hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed process stat %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("process stat has %d fields after the name, want at least 13", len(f))
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseVmHWM extracts the peak resident set size, in kB, from the text
// of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line in process status")
}
