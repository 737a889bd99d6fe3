package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passjoin/internal/dataset"
)

// Load model: one generator process, at most this many client
// goroutines, each holding at most one keep-alive connection per daemon.
const maxClients = 2

// setups is how many times a measured run sets its daemons up; setup_s
// and peak_rss_mb are medians over them. coordSetups is the count for
// coord-lookup, whose set-up loads its corpus over HTTP and takes about
// 6 s where the others take under 1 s.
const setups, coordSetups = 5, 3

// env is one invocation's state: options, the daemons it started and
// the directory its files go to.
type env struct {
	opt    options
	fl     *fleet
	dir    string
	client *http.Client
	rep    *report

	serving   []*daemon // the set setupRepeated left running
	windowCPU float64   // CPU seconds the serving set used in the measured window
}

func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: maxClients,
			MaxConnsPerHost:     maxClients,
			DisableCompression:  true,
		},
	}
}

// writeCorpus saves a corpus as a daemon input file.
func (e *env) writeCorpus(name string, corpus []string) (string, error) {
	p := filepath.Join(e.dir, name)
	return p, dataset.SaveFile(p, corpus)
}

// rel shortens checkout paths in recorded daemon flags.
func (e *env) rel(args []string) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = strings.ReplaceAll(a, e.opt.root+string(filepath.Separator), "")
	}
	return out
}

// noteDaemons records the flags of the serving daemons.
func (e *env) noteDaemons(ds ...*daemon) {
	for _, d := range ds {
		e.rep.Daemons[d.name] = e.rel(d.args)
	}
}

// setupResult is what setting a workload's daemons up several times
// measured, and the last set, left running.
type setupResult struct {
	times []float64 // seconds from the first process start until all are ready
	rssMB []float64 // VmHWM summed over the set once ready
	ds    []*daemon
}

// setupRepeated brings the workload's daemons up n times and keeps the
// last set running.
func (e *env) setupRepeated(n int, up func(i int) ([]*daemon, error)) (setupResult, error) {
	var res setupResult
	for i := range n {
		start := time.Now()
		ds, err := up(i)
		if err != nil {
			return res, err
		}
		res.times = append(res.times, time.Since(start).Seconds())
		rss, err := peakRSSMB(ds)
		if err != nil {
			return res, err
		}
		res.rssMB = append(res.rssMB, rss)
		if i < n-1 {
			e.fl.stop(ds...)
		}
		res.ds = ds
	}
	e.noteDaemons(res.ds...)
	e.serving = res.ds
	return res, nil
}

// setupMetrics reports set-up time and memory, and the serving set's
// peak memory at the end of the run.
func (e *env) setupMetrics(s setupResult, endRSS float64) {
	r := e.rep
	r.e2e("setup_s", "s", median(s.times), len(s.times), "median over the run's set-ups")
	r.e2e("peak_rss_mb", "MB", median(s.rssMB), len(s.rssMB), "VmHWM summed over the workload's daemons once set up, median over set-ups")
	r.named("peak_rss_end_mb", "MB", endRSS, 1, "VmHWM summed over the serving daemons at the end of the run")
}

// closedLoop runs clients goroutines, each calling step back to back,
// until at least minDur has passed and minOps steps completed, or
// maxDur has passed. It returns the time it started.
func closedLoop(clients int, minDur, maxDur time.Duration, minOps int, step func(c int)) time.Time {
	// The generator's own collections would take CPU from the daemons it
	// measures; its heap during a window is small, so collect rarely.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				el := time.Since(start)
				if el >= maxDur || (el >= minDur && done.Load() >= int64(minOps)) {
					return
				}
				step(c)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return start
}

// call sends one request and reads the whole body. The latency runs from
// sending until the last body byte; a transport error, timeout or
// unexpected status is returned as err.
func call(client *http.Client, method, u, ctype string, body []byte, want int) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != want {
		return nil, lat, fmt.Errorf("%s %s: %s %s", method, u, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, lat, nil
}

func searchURL(base, q string) string { return base + "/v1/search?q=" + url.QueryEscape(q) }

// searchRaw runs GET /v1/search and returns the response body.
func searchRaw(client *http.Client, base, q string) ([]byte, time.Duration, error) {
	return call(client, http.MethodGet, searchURL(base, q), "", nil, http.StatusOK)
}

// search runs GET /v1/search and decodes the matches.
func search(client *http.Client, base, q string) (searchBody, time.Duration, error) {
	b, lat, err := searchRaw(client, base, q)
	var sb searchBody
	if err == nil {
		err = json.Unmarshal(b, &sb)
	}
	return sb, lat, err
}

type docReply struct {
	ID      int  `json:"id"`
	Deleted bool `json:"deleted"`
}

func insertDoc(client *http.Client, base, doc string) (int, time.Duration, error) {
	body, _ := json.Marshal(map[string]string{"doc": doc})
	b, lat, err := call(client, http.MethodPost, base+"/v1/docs", "application/json", body, http.StatusCreated)
	var r docReply
	if err == nil {
		err = json.Unmarshal(b, &r)
	}
	return r.ID, lat, err
}

func deleteDoc(client *http.Client, base string, id int) (time.Duration, error) {
	b, lat, err := call(client, http.MethodDelete, fmt.Sprintf("%s/v1/docs/%d", base, id), "", nil, http.StatusOK)
	var r docReply
	if err == nil {
		err = json.Unmarshal(b, &r)
	}
	if err == nil && !r.Deleted {
		err = fmt.Errorf("DELETE /v1/docs/%d: not deleted", id)
	}
	return lat, err
}

// peakRSSMB sums VmHWM over the daemons.
func peakRSSMB(ds []*daemon) (float64, error) {
	var kb int64
	for _, d := range ds {
		v, err := d.vmHWMKB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// cpuSecondsOf sums the CPU time the daemons have used.
func cpuSecondsOf(ds []*daemon) (float64, error) {
	var sum float64
	for _, d := range ds {
		v, err := d.cpuSeconds()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		sum += v
	}
	return sum, nil
}

// cpuPerOp reports the serving daemons' CPU time over the measured
// window per operation completed in it. The kernel leaves out time the
// hypervisor gave to other guests (steal), which stretches every
// wall-clock figure of a run on a shared host.
func (e *env) cpuPerOp(ops int) {
	e.rep.e2e("cpu_us_per_op", "us", e.windowCPU*1e6/float64(max(ops, 1)), ops,
		"user+system CPU of the serving daemons over the measured window, per completed operation")
}

func mkdir(p string) error { return os.MkdirAll(p, 0o755) }
