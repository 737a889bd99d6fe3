package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// metric is one reported number with the sample count behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// report collects one invocation's results. E2E holds the end-to-end
// metrics BENCHMARK.json gates on; Named the same run's figures under
// the per-workload names (lookup_*, write_*, join_s, space_amp,
// fail_ratio); Layer the per-layer metrics of a traced run.
type report struct {
	Workload string                 `json:"workload"`
	E2E      []metric               `json:"end_to_end,omitempty"`
	Named    []metric               `json:"named,omitempty"`
	Layer    []metric               `json:"per_layer,omitempty"`
	Streams  map[string]streamProps `json:"streams,omitempty"`
	Daemons  map[string][]string    `json:"daemon_flags"`
	Notes    []string               `json:"notes,omitempty"`

	mu        sync.Mutex
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     []string `json:"wrong,omitempty"`
}

func newReport(workload string) *report {
	return &report{Workload: workload, Streams: map[string]streamProps{}, Daemons: map[string][]string{}}
}

// maxWrongShown bounds the wrong answers quoted in the output.
const maxWrongShown = 10

// attempt counts operations; ok reports whether each was correct.
func (r *report) attempt(n int) {
	r.mu.Lock()
	r.Attempted += n
	r.mu.Unlock()
}

// fail counts one failed or wrong operation and keeps its description.
func (r *report) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Wrong) < maxWrongShown {
		r.Wrong = append(r.Wrong, err.Error())
	}
}

func (r *report) e2e(name, unit string, v float64, n int, note string) {
	r.E2E = append(r.E2E, metric{name, unit, v, n, note})
}

func (r *report) named(name, unit string, v float64, n int, note string) {
	r.Named = append(r.Named, metric{name, unit, v, n, note})
}

func (r *report) layer(name, unit string, v float64, n int) {
	r.Layer = append(r.Layer, metric{Name: name, Unit: unit, Value: v, Samples: n})
}

// latencies adds t's quantiles qs under prefix (op, lookup, write) as
// prefix_pNN_us, noting the chunking and any quantile the chunks do not
// resolve.
func (r *report) latencies(add func(string, string, float64, int, string), prefix string, t timing, qs ...float64) {
	for _, q := range qs {
		note := fmt.Sprintf("median over %d chunks of the run", t.Chunks)
		if !t.Resolved[q] {
			note = fmt.Sprintf("unresolved: chunks of %d samples need %d, value is the chunks' nearest-rank quantile", t.N/max(t.Chunks, 1), minSamples(q))
		}
		add(fmt.Sprintf("%s_p%d_us", prefix, int(math.Round(q*100))), "us", t.US[q], t.N, note)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valuedUnit `json:"metrics"`
}

type valuedUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, the provenance record and
// the result line. A run with any failed or wrong operation is
// reported and then returned as an error, so the command exits non-zero.
func (r *report) print(w io.Writer, p provenance) error {
	fmt.Fprintf(w, "pjbench %s seed=%d seconds=%d trace=%v\n", r.Workload, p.Seed, p.Seconds, p.Trace)
	for _, set := range [][]metric{r.Named, r.E2E, r.Layer} {
		for _, m := range set {
			line := fmt.Sprintf("  %-40s %14.4f %-6s samples=%d", m.Name, m.Value, m.Unit, m.Samples)
			if m.Note != "" {
				line += "  (" + m.Note + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, s := range r.Wrong {
		fmt.Fprintln(w, "  FAILED:", s)
	}
	prov, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		*report
	}{p, r})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", prov)

	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valuedUnit{}}
	set := r.E2E
	if p.Trace {
		set = r.Layer
	}
	for _, m := range set {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
		res.Metrics[m.Name] = valuedUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if r.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	if r.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed or answered wrong", r.Failed, r.Attempted)
	}
	return nil
}
