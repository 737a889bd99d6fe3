package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one passjoind process on a loopback port.
type daemon struct {
	name    string
	args    []string // flags and corpus as passed, without the binary
	addr    string
	errPath string
	cmd     *exec.Cmd
	exited  chan struct{}
	waitErr error
}

func (d *daemon) url() string { return "http://" + d.addr }

// fleet owns every daemon the benchmark starts and stops them all on
// exit, error or signal.
type fleet struct {
	bin string
	dir string

	mu      sync.Mutex
	started []*daemon
	seq     int
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// start launches passjoind with args after -addr; its stderr goes to a
// file in the fleet directory.
func (f *fleet) start(name string, args ...string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port for %s: %w", name, err)
	}
	f.mu.Lock()
	f.seq++
	errPath := filepath.Join(f.dir, fmt.Sprintf("%s-%d.stderr", name, f.seq))
	f.mu.Unlock()
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(f.bin, full...)
	cmd.Stdout = errFile
	cmd.Stderr = errFile
	// A benchmark killed before its cleanup runs still takes its daemons
	// with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, args: full, addr: addr, errPath: errPath, cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	f.mu.Lock()
	f.started = append(f.started, d)
	f.mu.Unlock()
	return d, nil
}

// stop sends SIGTERM, waits up to 10s, then kills; it always reaps.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// stderrTail returns the last n bytes the daemon wrote to stderr.
func (d *daemon) stderrTail(n int64) string {
	f, err := os.Open(d.errPath)
	if err != nil {
		return ""
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() > n {
		_, _ = f.Seek(st.Size()-n, io.SeekStart)
	}
	b, _ := io.ReadAll(f)
	return string(b)
}

// dead reports a daemon that exited, with the tail of its stderr.
func (d *daemon) dead() error {
	select {
	case <-d.exited:
		return fmt.Errorf("%s exited (%v); stderr tail:\n%s", d.name, d.waitErr, d.stderrTail(2048))
	default:
		return nil
	}
}

// stopAll stops every daemon still running and prints the stderr tail
// of any that died on its own.
func (f *fleet) stopAll() {
	f.mu.Lock()
	ds := f.started
	f.started = nil
	f.mu.Unlock()
	for _, d := range ds {
		if err := d.dead(); err != nil {
			fmt.Fprintln(os.Stderr, "pjbench:", err)
			continue
		}
		d.stop()
	}
}

// stop stops the given daemons and forgets them.
func (f *fleet) stop(ds ...*daemon) {
	for _, d := range ds {
		d.stop()
	}
	f.mu.Lock()
	f.started = slices.DeleteFunc(f.started, func(x *daemon) bool {
		for _, d := range ds {
			if x == d {
				return true
			}
		}
		return false
	})
	f.mu.Unlock()
}

// waitHealthy polls GET /healthz until it answers 200 with a status of
// "ok", the daemon dies, or the deadline passes.
func waitHealthy(client *http.Client, d *daemon, timeout time.Duration) (map[string]any, error) {
	deadline := time.Now().Add(timeout)
	for {
		if err := d.dead(); err != nil {
			return nil, err
		}
		resp, err := client.Get(d.url() + "/healthz")
		if err == nil {
			var body map[string]any
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && body["status"] == "ok" {
				return body, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not healthy after %v; stderr tail:\n%s", d.name, timeout, d.stderrTail(2048))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// vmHWMKB reads the daemon's peak resident set size.
func (d *daemon) vmHWMKB() (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// cpuSeconds is the CPU time, user plus system, the process has used.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// scrape fetches and parses a daemon's /metrics.
func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// getJSON decodes a GET response body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // removed by a compaction while the walk ran
		}
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
