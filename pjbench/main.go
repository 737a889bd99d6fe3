// Command pjbench is the repository's benchmark. It runs one named
// workload against real passjoind processes over loopback, checks every
// answer, and prints each end-to-end metric; with --trace 1 it instead
// replays every workload's seeded stream with one client and reports
// per-layer metrics from spans around calls into each layer.
//
//	bash pjbench/run.sh --workload lookup-short --seed 1 --seconds 25 --trace 0
//
// run.sh builds passjoind and this command from the checkout first. The
// last line of standard output is the machine-readable result.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root
	bin      string // directory holding the passjoind binary
}

// workloads maps each name to its measured run. The reasons each was
// chosen are recorded in BENCHMARK.json.
var workloads = map[string]func(*env) error{
	"lookup-short": runLookupShort,
	"join-long":    runJoinLong,
	"churn":        runChurn,
	"coord-lookup": runCoordLookup,
}

var workloadOrder = []string{"lookup-short", "join-long", "churn", "coord-lookup"}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&opt.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced layer run instead of the measured run")
	flag.StringVar(&opt.root, "root", ".", "checkout root")
	flag.StringVar(&opt.bin, "bin", ".bench_build/bin", "directory holding the passjoind binary")
	flag.Parse()
	opt.trace = trace == 1
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "pjbench:", err)
		os.Exit(1)
	}
}

// all names every workload in one invocation; the traced run covers
// every workload whichever is named.
const all = "all"

func run(opt options) error {
	if _, ok := workloads[opt.workload]; !ok && opt.workload != all {
		return fmt.Errorf("unknown workload %q (have %s, or %s)", opt.workload, strings.Join(workloadOrder, ", "), all)
	}
	if opt.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if opt.workload != all || opt.trace {
		return runOne(opt)
	}
	var errs []error
	for _, w := range workloadOrder {
		opt.workload = w
		if err := runOne(opt); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w, err))
		}
	}
	return errors.Join(errs...)
}

// runOne runs one workload, or the traced run, in its own directory
// with its own daemons.
func runOne(opt options) error {
	root, err := filepath.Abs(opt.root)
	if err != nil {
		return err
	}
	opt.root = root
	bin, err := filepath.Abs(opt.bin)
	if err != nil {
		return err
	}
	daemonBin := filepath.Join(bin, "passjoind")
	if _, err := os.Stat(daemonBin); err != nil {
		return fmt.Errorf("passjoind binary: %w (run through run.sh, which builds it)", err)
	}
	dir := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", opt.workload, opt.seed, os.Getpid()))
	if err := mkdir(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{
		opt:    opt,
		fl:     &fleet{bin: daemonBin, dir: dir},
		dir:    dir,
		client: newClient(lookupDeadline),
		rep:    newReport(opt.workload),
	}
	defer e.fl.stopAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			e.fl.stopAll()
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}()

	if opt.trace {
		err = runLadder(e)
	} else {
		err = workloads[opt.workload](e)
	}
	if err != nil {
		return err
	}
	e.fl.stopAll()
	return e.rep.print(os.Stdout, provenanceOf(opt))
}

// provenance identifies the code, machine and settings behind a result.
type provenance struct {
	Commit       string     `json:"commit"`
	Dirty        string     `json:"dirty"`
	SourceSHA256 string     `json:"source_sha256"`
	CPUModel     string     `json:"cpu_model"`
	NProc        int        `json:"nproc"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	GoVersion    string     `json:"go_version"`
	Workload     string     `json:"workload"`
	Why          string     `json:"why"`
	Seed         int64      `json:"seed"`
	Seconds      int        `json:"seconds"`
	Trace        bool       `json:"trace"`
	LoadModel    string     `json:"load_model"`
	Layers       []layerRow `json:"layers,omitempty"`
	Started      string     `json:"started_utc"`
}

func provenanceOf(opt options) provenance {
	p := provenance{
		Commit:       "unknown (not a git checkout)",
		Dirty:        "unknown",
		SourceSHA256: sourceHash(opt.root),
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Workload:     opt.workload,
		Why:          whyOf(opt.root, opt.workload),
		Seed:         opt.seed,
		Seconds:      opt.seconds,
		Trace:        opt.trace,
		LoadModel:    fmt.Sprintf("closed loop, one generator process, <= %d client goroutines, <= %d keep-alive connections per daemon", maxClients, maxClients),
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
	if opt.trace {
		p.LoadModel = "closed loop, one client, traced"
		p.Layers = layerMap
	}
	if top, err := exec.Command("git", "-C", opt.root, "rev-parse", "--show-toplevel").Output(); err == nil &&
		strings.TrimSpace(string(top)) == opt.root {
		if out, err := exec.Command("git", "-C", opt.root, "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", opt.root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			p.Dirty = fmt.Sprint(len(strings.TrimSpace(string(out))) > 0)
		}
	}
	return p
}

// sourceHash fingerprints the Go sources and module files under root, so
// a result from a checkout without git history still names its code.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not change the fingerprint's meaning
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if fh, err := os.Open(f); err == nil {
			_, _ = io.Copy(h, fh)
			fh.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// whyOf reads the workload's recorded reason from BENCHMARK.json.
func whyOf(root, workload string) string {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return ""
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if json.Unmarshal(b, &spec) != nil {
		return ""
	}
	for _, w := range spec.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}
