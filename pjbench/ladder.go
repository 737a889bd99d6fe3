package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"passjoin"
	"passjoin/internal/cluster"
	"passjoin/internal/dataset"
	"passjoin/internal/server"
)

// layerRow states which end-to-end metric, on which workload, each
// layer's metrics should move.
type layerRow struct {
	Layer   string   `json:"layer"`
	Metrics []string `json:"metrics"`
	Moves   string   `json:"should_move"`
}

var layerMap = []layerRow{
	{"passjoind (cmd/passjoind, loopback)", []string{"passjoind.transport_us", "passjoind.gc_cycles_per_kop"},
		"cpu_us_per_op, op_p50_us and ops_per_s on lookup-short; not join-long"},
	{"server (internal/server)", []string{"server.self_us", "server.allocs_per_req", "server.join_stream_s", "server.write_self_us"},
		"cpu_us_per_op, op_p50_us and ops_per_s on lookup-short; cpu_us_per_op and op_p50_us on join-long; write latency and cpu_us_per_op on churn"},
	{"passjoin (root facade)", []string{"passjoin.search_us", "passjoin.fanout_us", "passjoin.build_s", "passjoin.join_s"},
		"cpu_us_per_op and op_p50_us on lookup-short; setup_s; cpu_us_per_op and op_p50_us on join-long"},
	{"core (internal/core)", []string{"core.query_us", "core.query_traced_us", "core.selected_per_query", "core.lists_per_query",
		"core.verifications_per_query", "core.results_per_verification", "core.join_candidates", "core.join_verifications",
		"core.join_results_per_verification"},
		"cpu_us_per_op and op_p50_us on lookup-short, churn and join-long"},
	{"verify (internal/verify)", []string{"verify.self_us_per_query", "verify.join_dp_cells", "verify.join_early_termination_ratio"},
		"cpu_us_per_op and op_p50_us on join-long; read latency on churn; little on lookup-short"},
	{"index (internal/index)", []string{"index.frozen_bytes_per_input_byte", "index.join_lookup_hit_ratio"},
		"peak_rss_mb and setup_s on lookup-short; cpu_us_per_op and op_p50_us on join-long"},
	{"dynamic (internal/dynamic)", []string{"dynamic.insert_us", "dynamic.delete_us", "dynamic.search_us", "dynamic.compactions",
		"dynamic.compact_s", "dynamic.delta_docs_max", "dynamic.wal_bytes_per_write"},
		"cpu_us_per_op, op_p50_us, op_p90_us and peak_rss_mb on churn (write latency, read tail, space_amp); nothing on lookup-short"},
	{"cluster (internal/cluster + server.Coordinator)", []string{"cluster.member_us", "cluster.coord_self_us", "cluster.merge_us",
		"cluster.member_calls_per_req", "cluster.retries_per_kreq", "cluster.partial_ratio", "cluster.insert_us"},
		"cpu_us_per_op, op_p50_us, op_p90_us and setup_s on coord-lookup; nothing on lookup-short"},
	{"tracing itself", []string{"trace.overhead_ratio.lookup-short", "trace.overhead_ratio.join-long",
		"trace.overhead_ratio.churn", "trace.overhead_ratio.coord-lookup"},
		"none: traced-pass p50 of the daemon call over the untraced pass p50, one client each"},
}

// ladder is the traced run: each workload's seeded stream replayed by
// one client, first untraced, then traced with in-process calls into
// each layer on the same input.
type ladder struct {
	e    *env
	rec  *recorder
	pass time.Duration // length of each untraced and traced pass
}

// tracedIndex wraps a searcher handed to server.New so the handler's
// call into it nests under the handler's span.
type tracedIndex struct {
	server.Index
	rec  *recorder
	name string
}

func (t *tracedIndex) Search(q string, opts ...passjoin.QueryOption) []passjoin.Match {
	defer t.rec.nested(t.name)()
	return t.Index.Search(q, opts...)
}

// tracedMutable wraps a mutable searcher the same way, for reads and
// writes.
type tracedMutable struct {
	server.MutableIndex
	rec *recorder
}

func (t *tracedMutable) Search(q string, opts ...passjoin.QueryOption) []passjoin.Match {
	defer t.rec.nested("dynamic.search")()
	return t.MutableIndex.Search(q, opts...)
}

func (t *tracedMutable) Insert(doc string) (int, error) {
	defer t.rec.nested("dynamic.insert")()
	return t.MutableIndex.Insert(doc)
}

func (t *tracedMutable) Delete(id int) (bool, error) {
	defer t.rec.nested("dynamic.delete")()
	return t.MutableIndex.Delete(id)
}

// tracedOp is one operation of a traced pass: its input and the span
// of its daemon call.
type tracedOp struct {
	q    string
	root int
	kind byte
	id   int
}

// sweep runs fn on every op in order, each inside a span named name
// under the op's root. In-process layers run as separate sweeps after
// the daemon calls, so no call finds the caches warmed by another layer
// on the same input, and the daemon calls run as they do untraced.
func (l *ladder) sweep(ops []tracedOp, name string, fn func(tracedOp)) {
	for _, op := range ops {
		l.rec.within(name, op.root, func() { fn(op) })
	}
}

func runLadder(e *env) error {
	l := &ladder{e: e, rec: newRecorder(), pass: max(time.Second, time.Duration(e.opt.seconds)*time.Second/8)}
	for _, step := range []func() error{l.lookupShort, l.joinLong, l.churn, l.coordLookup} {
		if err := step(); err != nil {
			return err
		}
	}
	dir := filepath.Join(e.opt.root, ".bench_build", "trace")
	if err := mkdir(dir); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", e.opt.workload, e.opt.seed))
	spans := l.rec.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	e.rep.Notes = append(e.rep.Notes, fmt.Sprintf("%d spans written to %s", len(spans), e.rel([]string{path})[0]),
		"core phase times come from passjoin.QueryTrace, whose clock reads inflate them; its counts are exact")
	return nil
}

// shardsOf reads a node's shard count from its /healthz reply, so the
// in-process searchers match the daemon's default.
func shardsOf(health map[string]any) (int, error) {
	n, ok := health["shards"].(float64)
	if !ok || n < 1 {
		return 0, fmt.Errorf("/healthz reply has no shard count: %v", health)
	}
	return int(n), nil
}

// warm issues untimed operations for a quarter of a pass, so the first
// timed pass does not pay the daemon's first-touch costs alone.
func (l *ladder) warm(op func(k int)) {
	for k, start := 0, time.Now(); time.Since(start) < l.pass/4; k++ {
		op(k)
	}
}

// overhead reports the traced pass's p50 daemon call over the untraced
// pass's.
func (l *ladder) overhead(workload string, untraced, traced []time.Duration) {
	u, _ := percentile(untraced, 0.5)
	t, _ := percentile(traced, 0.5)
	l.e.rep.layer("trace.overhead_ratio."+workload, "ratio", t/u, len(traced))
}

func (l *ladder) lookupShort() error {
	e, rec := l.e, l.rec
	corpus, stream := lookupShortInputs(e.opt.seed)
	path, err := e.writeCorpus("author.txt", corpus)
	if err != nil {
		return err
	}
	d, health, err := e.startNode("passjoind", "-tau", strconv.Itoa(shortTau), path)
	if err != nil {
		return err
	}
	shards, err := shardsOf(health)
	if err != nil {
		return err
	}
	var st passjoin.Stats
	t0 := time.Now()
	sharded, err := passjoin.NewShardedSearcher(corpus, shortTau, passjoin.WithShards(shards), passjoin.WithStats(&st))
	if err != nil {
		return err
	}
	buildS := time.Since(t0).Seconds()
	one, err := passjoin.NewSearcher(corpus, shortTau)
	if err != nil {
		return err
	}
	srv := server.New(&tracedIndex{Index: sharded, rec: rec, name: "passjoin.search"}, nil, server.Config{})
	base := d.url()
	l.warm(func(k int) { search(e.client, base, stream[len(stream)-1-k%len(stream)]) })
	before, err := scrape(e.client, base)
	if err != nil {
		return err
	}
	var recs []lookupRec
	var untraced, traced []time.Duration
	i := 0
	for start := time.Now(); time.Since(start) < l.pass; i++ {
		q := stream[i%len(stream)]
		body, lat, err := searchRaw(e.client, base, q)
		recs = append(recs, lookupRec{q: q, body: body, lat: lat, err: err})
		untraced = append(untraced, lat)
	}
	var ops []tracedOp
	for start := time.Now(); time.Since(start) < l.pass; i++ {
		q := stream[i%len(stream)]
		rec.nextOp()
		root := rec.open("passjoind.search", 0)
		body, lat, err := searchRaw(e.client, base, q)
		rec.close(root)
		recs = append(recs, lookupRec{q: q, body: body, lat: lat, err: err})
		traced = append(traced, lat)
		ops = append(ops, tracedOp{q: q, root: root})
	}
	n := len(ops)
	var allocs uint64
	for _, op := range ops {
		req, rr := httptest.NewRequest(http.MethodGet, searchURL("", op.q), nil), httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rec.within("server.search", op.root, func() { srv.ServeHTTP(rr, req) })
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
	}
	l.sweep(ops, "passjoin.sharded", func(op tracedOp) { sharded.Search(op.q) })
	l.sweep(ops, "core.search", func(op tracedOp) { one.Search(op.q) })
	var tr passjoin.Trace
	var phase [4]passjoin.PhaseTiming
	results := 0
	l.sweep(ops, "core.search_traced", func(op tracedOp) {
		tr.Reset()
		results += len(one.Search(op.q, passjoin.QueryTrace(&tr)))
		for p, pt := range tr.Phases() {
			phase[p].Nanos += pt.Nanos
			phase[p].Count += pt.Count
		}
	})
	after, err := scrape(e.client, base)
	if err != nil {
		return err
	}
	e.noteDaemons(d)
	e.fl.stop(d)

	at := func(id int) string { return corpus[id] }
	e.checkLookups(recs, func(q string, hits []hit) error {
		return checkIDDist(q, hits, fromMatches(one.Search(q), at))
	})
	r := e.rep
	hmean, hcount := histMeanDelta(before, after, "passjoin_http_request_duration_seconds", `route="/v1/search"`)
	r.layer("passjoind.transport_us", "us", meanDur(append(untraced, traced...))-hmean*1e6, int(hcount))
	gc := delta(before, after, "go_gc_cycles_total")
	r.layer("passjoind.gc_cycles_per_kop", "count", gc*1000/float64(len(recs)), len(recs))
	sum := summarize(rec.snapshot())
	r.layer("server.self_us", "us", sum["server.search"].SelfUS, sum["server.search"].N)
	r.layer("server.allocs_per_req", "count", float64(allocs)/float64(n), n)
	r.layer("passjoin.search_us", "us", sum["passjoin.sharded"].MeanUS, n)
	r.layer("passjoin.fanout_us", "us", sum["passjoin.sharded"].MeanUS-sum["core.search"].MeanUS, n)
	r.layer("passjoin.build_s", "s", buildS, 1)
	r.layer("core.query_us", "us", sum["core.search"].MeanUS, n)
	r.layer("core.query_traced_us", "us", sum["core.search_traced"].MeanUS, n)
	r.layer("core.selected_per_query", "count", float64(phase[0].Count)/float64(n), n)
	r.layer("core.lists_per_query", "count", float64(phase[1].Count)/float64(n), n)
	r.layer("core.verifications_per_query", "count", float64(phase[3].Count)/float64(n), n)
	r.layer("core.results_per_verification", "ratio", float64(results)/float64(max(phase[3].Count, 1)), n)
	r.layer("verify.self_us_per_query", "us", float64(phase[3].Nanos)/float64(n)/1e3, n)
	var inBytes int
	for _, s := range corpus {
		inBytes += len(s)
	}
	r.layer("index.frozen_bytes_per_input_byte", "ratio", float64(st.FrozenBytes)/float64(inBytes), 1)
	l.overhead("lookup-short", untraced, traced)
	return nil
}

// minTracedJoins is the least number of joins in each pass.
const minTracedJoins = 2

func (l *ladder) joinLong() error {
	e, rec := l.e, l.rec
	corpus := mixed(dataset.AuthorTitle, longN, longVocabs, e.opt.seed)
	path, err := e.writeCorpus("authortitle.txt", corpus)
	if err != nil {
		return err
	}
	d, health, err := e.startNode("passjoind", "-tau", strconv.Itoa(longTau), path)
	if err != nil {
		return err
	}
	shards, err := shardsOf(health)
	if err != nil {
		return err
	}
	idx, err := passjoin.NewShardedSearcher(corpus, longTau, passjoin.WithShards(shards))
	if err != nil {
		return err
	}
	srv := server.New(idx, nil, server.Config{})
	want, err := referenceJoin(corpus, longTau)
	if err != nil {
		return err
	}
	body := strings.Join(corpus, "\n") + "\n"
	client := newClient(joinDeadline)
	join := func() (time.Duration, error) {
		b, lat, err := call(client, http.MethodPost, d.url()+"/v1/join/self", "text/plain", []byte(body), http.StatusOK)
		if err == nil {
			err = checkJoin(b, corpus, want)
		}
		e.rep.attempt(1)
		if err != nil {
			e.rep.fail(err)
		}
		return lat, err
	}
	var untraced, traced []time.Duration
	for start := time.Now(); len(untraced) < minTracedJoins || time.Since(start) < l.pass; {
		lat, err := join()
		if err != nil {
			return err
		}
		untraced = append(untraced, lat)
	}
	var ops []tracedOp
	for start := time.Now(); len(traced) < minTracedJoins || time.Since(start) < l.pass; {
		rec.nextOp()
		root := rec.open("passjoind.join", 0)
		lat, err := join()
		rec.close(root)
		if err != nil {
			return err
		}
		traced = append(traced, lat)
		ops = append(ops, tracedOp{root: root})
	}
	e.noteDaemons(d)
	e.fl.stop(d)

	// The handler's join and the library join it wraps alternate which
	// runs first, so drift between the two sweeps does not land on their
	// difference.
	par := passjoin.WithParallelism(runtime.GOMAXPROCS(0))
	for k, op := range ops {
		handler := func() {
			rec.within("server.join", op.root, func() {
				srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/join/self", strings.NewReader(body)))
			})
		}
		library := func() {
			rec.within("passjoin.join", op.root, func() {
				err = cmp.Or(err, passjoin.SelfJoinEach(corpus, longTau, func(int, int) bool { return true }, par))
			})
		}
		if k%2 == 0 {
			handler()
			library()
		} else {
			library()
			handler()
		}
	}
	if err != nil {
		return err
	}
	// Counters come from one more join with a stats sink, kept out of
	// the timed ones.
	var st passjoin.Stats
	if err := passjoin.SelfJoinEach(corpus, longTau, func(int, int) bool { return true }, par, passjoin.WithStats(&st)); err != nil {
		return err
	}

	r := e.rep
	sum := summarize(rec.snapshot())
	r.layer("server.join_stream_s", "s", (sum["server.join"].MeanUS-sum["passjoin.join"].MeanUS)/1e6, sum["server.join"].N)
	r.layer("passjoin.join_s", "s", sum["passjoin.join"].MeanUS/1e6, sum["passjoin.join"].N)
	r.layer("core.join_candidates", "count", float64(st.Candidates), 1)
	r.layer("core.join_verifications", "count", float64(st.Verifications), 1)
	r.layer("core.join_results_per_verification", "ratio", float64(st.Results)/float64(max(st.Verifications, 1)), 1)
	r.layer("verify.join_dp_cells", "count", float64(st.DPCells), 1)
	r.layer("verify.join_early_termination_ratio", "ratio", float64(st.EarlyTerminations)/float64(max(st.Verifications, 1)), 1)
	r.layer("index.join_lookup_hit_ratio", "ratio", float64(st.LookupHits)/float64(max(st.Lookups, 1)), 1)
	l.overhead("join-long", untraced, traced)
	return nil
}

// prefill is how many documents the in-process mirror inserts before
// the traced churn pass, so its searches always see a non-empty delta.
const prefill = 256

var churnOpNames = map[byte]string{'s': "search", 'i': "insert", 'd': "delete"}

func (l *ladder) churn() error {
	e, rec := l.e, l.rec
	corpus := mixed(dataset.QueryLog, churnN, churnVocabs, e.opt.seed)
	path, err := e.writeCorpus("querylog.txt", corpus)
	if err != nil {
		return err
	}
	d, health, err := e.startNode("passjoind", "-tau", strconv.Itoa(churnTau), "-wal", filepath.Join(e.dir, "ladder-wal-daemon"), path)
	if err != nil {
		return err
	}
	shards, err := shardsOf(health)
	if err != nil {
		return err
	}
	base := d.url()
	var stats0, stats1 struct {
		Compactions int64 `json:"compactions"`
	}
	if err := getJSON(e.client, base+"/v1/stats", &stats0); err != nil {
		return err
	}
	c := newChurnClients(corpus, e.opt.seed)[0]
	l.warm(func(int) { c.step(e.client, base, false) })
	var untraced, traced []time.Duration
	for start := time.Now(); time.Since(start) < l.pass; {
		untraced = append(untraced, c.step(e.client, base, true).lat)
	}
	var ops []tracedOp
	for start := time.Now(); time.Since(start) < l.pass; {
		rec.nextOp()
		root := rec.open("passjoind.churn", 0)
		op := c.step(e.client, base, true)
		rec.close(root)
		rec.rename(root, "passjoind.churn_"+churnOpNames[op.kind])
		traced = append(traced, op.lat)
		if op.err == nil {
			ops = append(ops, tracedOp{q: op.q, root: root, kind: op.kind, id: op.id})
		}
	}
	if err := getJSON(e.client, base+"/v1/stats", &stats1); err != nil {
		return err
	}
	e.noteDaemons(d)
	e.fl.stop(d)

	// The in-process mirror replays the traced pass's operations in order
	// through server.New over a durable DynamicSearcher with the daemon's
	// shard count.
	dyn, err := passjoin.OpenDynamicSearcher(filepath.Join(e.dir, "ladder-wal-inproc"), corpus, churnTau, passjoin.WithShards(shards))
	if err != nil {
		return err
	}
	defer dyn.Close()
	srv := server.New(&tracedMutable{MutableIndex: dyn, rec: rec}, nil, server.Config{})
	for i := range prefill {
		if _, err := dyn.Insert(mutate(c.rng, corpus[i], 2)); err != nil {
			return err
		}
	}
	wal0 := dyn.Stats().WALBytes
	mirror := map[int]int{} // daemon id -> in-process id of the same document
	writes := 0
	deltaMax := dyn.Stats().DeltaDocs
	for _, op := range ops {
		var req *http.Request
		switch op.kind {
		case 's':
			req = httptest.NewRequest(http.MethodGet, searchURL("", op.q), nil)
		case 'i':
			doc, _ := json.Marshal(map[string]string{"doc": op.q})
			req = httptest.NewRequest(http.MethodPost, "/v1/docs", bytes.NewReader(doc))
		case 'd':
			id, ok := mirror[op.id]
			if !ok {
				continue // inserted during the untraced pass, which has no mirror
			}
			req = httptest.NewRequest(http.MethodDelete, "/v1/docs/"+strconv.Itoa(id), nil)
		}
		rr := httptest.NewRecorder()
		rec.within("server.churn_"+churnOpNames[op.kind], op.root, func() { srv.ServeHTTP(rr, req) })
		if op.kind != 's' {
			writes++
		}
		if op.kind == 'i' {
			var reply docReply
			if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil || rr.Code != http.StatusCreated {
				return fmt.Errorf("in-process insert: %d %s", rr.Code, rr.Body.String())
			}
			mirror[op.id] = reply.ID
		}
		deltaMax = max(deltaMax, dyn.Stats().DeltaDocs)
	}
	walPerWrite := float64(dyn.Stats().WALBytes-wal0) / float64(max(writes, 1))
	t0 := time.Now()
	if err := dyn.Compact(); err != nil {
		return err
	}
	compactS := time.Since(t0).Seconds()

	ref, err := passjoin.NewSearcher(corpus, churnTau)
	if err != nil {
		return err
	}
	e.checkChurnOps([]*churnClient{c}, corpus, ref)
	r := e.rep
	sum := summarize(rec.snapshot())
	ins, del := sum["server.churn_insert"], sum["server.churn_delete"]
	nw := ins.N + del.N
	r.layer("server.write_self_us", "us", (ins.SelfUS*float64(ins.N)+del.SelfUS*float64(del.N))/float64(max(nw, 1)), nw)
	r.layer("dynamic.insert_us", "us", sum["dynamic.insert"].MeanUS, sum["dynamic.insert"].N)
	r.layer("dynamic.delete_us", "us", sum["dynamic.delete"].MeanUS, sum["dynamic.delete"].N)
	r.layer("dynamic.search_us", "us", sum["dynamic.search"].MeanUS, sum["dynamic.search"].N)
	r.layer("dynamic.compactions", "count", float64(stats1.Compactions-stats0.Compactions), 1)
	r.layer("dynamic.compact_s", "s", compactS, 1)
	r.layer("dynamic.delta_docs_max", "count", float64(deltaMax), writes)
	r.layer("dynamic.wal_bytes_per_write", "bytes", walPerWrite, writes)
	l.overhead("churn", untraced, traced)
	return nil
}

func (l *ladder) coordLookup() error {
	e, rec := l.e, l.rec
	corpus, stream := coordInputs(e.opt.seed)
	var insertLat []time.Duration
	ds, err := e.startCluster(corpus, 1, &insertLat)
	if err != nil {
		return err
	}
	co, members := ds[len(ds)-1], ds[:len(ds)-1]
	l.warm(func(k int) { search(e.client, co.url(), stream[len(stream)-1-k%len(stream)]) })
	before, err := scrape(e.client, co.url())
	if err != nil {
		return err
	}
	var recs []lookupRec
	var untraced, traced []time.Duration
	i := 0
	for start := time.Now(); time.Since(start) < l.pass; i++ {
		q := stream[i%len(stream)]
		body, lat, err := searchRaw(e.client, co.url(), q)
		recs = append(recs, lookupRec{q: q, body: body, lat: lat, err: err})
		untraced = append(untraced, lat)
	}
	var ops []tracedOp
	for start := time.Now(); time.Since(start) < l.pass; i++ {
		q := stream[i%len(stream)]
		rec.nextOp()
		root := rec.open("coordinator.search", 0)
		body, lat, err := searchRaw(e.client, co.url(), q)
		rec.close(root)
		recs = append(recs, lookupRec{q: q, body: body, lat: lat, err: err})
		traced = append(traced, lat)
		ops = append(ops, tracedOp{q: q, root: root})
	}
	// Direct member calls for the same queries, both members at once as
	// the coordinator's scatter sends them, then the merge of their
	// answers.
	slowest := make([]time.Duration, len(ops))
	parts := make([][][]cluster.Hit, len(ops))
	for k, op := range ops {
		e.rep.attempt(len(members))
		parts[k] = make([][]cluster.Hit, len(members))
		lats := make([]time.Duration, len(members))
		var wg sync.WaitGroup
		for m, md := range members {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := rec.open("cluster.member_call", op.root)
				mb, mlat, merr := search(e.client, md.url(), op.q)
				rec.close(id)
				lats[m] = mlat
				if merr != nil {
					e.rep.fail(merr)
				}
				for _, h := range mb.Matches {
					parts[k][m] = append(parts[k][m], cluster.Hit{ID: h.ID, String: h.String, Dist: h.Dist})
				}
			}()
		}
		wg.Wait()
		slowest[k] = slices.Max(lats)
	}
	for k, op := range ops {
		rec.within("cluster.merge", op.root, func() { cluster.MergeHits(parts[k], 0) })
	}
	after, err := scrape(e.client, co.url())
	if err != nil {
		return err
	}
	e.noteDaemons(ds...)
	e.fl.stop(ds...)

	ref, err := passjoin.NewSearcher(corpus, coordTau)
	if err != nil {
		return err
	}
	at := func(id int) string { return corpus[id] }
	e.checkLookups(recs, func(q string, hits []hit) error {
		return checkStringDist(q, hits, fromMatches(ref.Search(q), at))
	})
	r := e.rep
	reqs := float64(len(recs))
	calls := sumDelta(before, after, "passjoin_cluster_requests_total", `route="/v1/search"`)
	sum := summarize(rec.snapshot())
	memberUS := meanDur(slowest)
	r.layer("cluster.member_us", "us", memberUS, len(slowest))
	r.layer("cluster.coord_self_us", "us", sum["coordinator.search"].MeanUS-memberUS, len(slowest))
	r.layer("cluster.merge_us", "us", sum["cluster.merge"].MeanUS, sum["cluster.merge"].N)
	r.layer("cluster.member_calls_per_req", "count", calls/reqs, len(recs))
	r.layer("cluster.retries_per_kreq", "count", max(0, calls-float64(len(members))*reqs)*1000/reqs, len(recs))
	r.layer("cluster.partial_ratio", "ratio", delta(before, after, "passjoin_cluster_partial_responses_total")/reqs, len(recs))
	r.layer("cluster.insert_us", "us", meanDur(insertLat), len(insertLat))
	l.overhead("coord-lookup", untraced, traced)
	return nil
}
