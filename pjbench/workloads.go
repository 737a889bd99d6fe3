package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"passjoin"
	"passjoin/internal/bruteforce"
	"passjoin/internal/dataset"
)

// Workload sizes and thresholds.
const (
	shortN, shortTau      = 200_000, 2 // lookup-short: author
	longN, longTau        = 20_000, 8  // join-long: authortitle
	longVocabs            = 10         // generator seeds per join-long corpus (see mixed)
	churnN, churnTau      = 100_000, 4 // churn: querylog
	churnVocabs           = 10         // generator seeds per churn corpus
	coordN, coordTau      = 20_000, 2  // coord-lookup: author over 2 members
	coordMembers          = 2
	streamLen             = 150_000 // lookup queries generated per run
	bruteSample           = 16      // lookup-short queries also checked by brute force
	warmup                = time.Second
	lookupDeadline        = 5 * time.Second
	joinDeadline          = 120 * time.Second
	healthDeadline        = 120 * time.Second
	minJoins              = 3
	churnSearchShare      = 0.50
	churnInsertShare      = 0.25 // the rest are deletes of the client's own inserts
	churnQueriesPerClient = 100_000
)

// measure runs the measured closed loop: --seconds long, extended up to
// three times that until minOps operations have completed. It returns
// the time it started, and records the CPU time the serving daemons used
// meanwhile.
func (e *env) measure(clients, minOps int, step func(c int)) (time.Time, error) {
	d := time.Duration(e.opt.seconds) * time.Second
	before, err := cpuSecondsOf(e.serving)
	if err != nil {
		return time.Time{}, err
	}
	start := closedLoop(clients, d, 3*d, minOps, step)
	after, err := cpuSecondsOf(e.serving)
	e.windowCPU = after - before
	return start, err
}

// lookupRec is one issued lookup. The response body is decoded only
// after the measured window, so the generator spends less CPU beside the
// daemons it measures.
type lookupRec struct {
	q        string
	body     []byte
	lat      time.Duration
	end      time.Time
	err      error
	measured bool
}

// lookupLoop warms up, then runs the measured closed loop of GET
// /v1/search over stream with maxClients clients. Client c issues
// stream entries c, c+maxClients, ... and wraps at the end.
func (e *env) lookupLoop(base string, stream []string) ([]lookupRec, time.Time, error) {
	per := make([][]lookupRec, maxClients)
	next := make([]int, maxClients)
	measured := false
	step := func(c int) {
		i := (next[c]*maxClients + c) % len(stream)
		next[c]++
		body, lat, err := searchRaw(e.client, base, stream[i])
		per[c] = append(per[c], lookupRec{q: stream[i], body: body, lat: lat, end: time.Now(), err: err, measured: measured})
	}
	closedLoop(maxClients, warmup, warmup, 0, step)
	measured = true
	start, err := e.measure(maxClients, minSamples(0.99), step)
	var all []lookupRec
	for _, p := range per {
		all = append(all, p...)
	}
	return all, start, err
}

// checkLookups counts every lookup, decodes each response and checks
// it with check, on maxClients goroutines; erroring, malformed and
// partial responses fail. It returns the measured latencies of
// successful lookups and the stream properties.
func (e *env) checkLookups(recs []lookupRec, check func(q string, hits []hit) error) ([]sample, streamProps) {
	e.rep.attempt(len(recs))
	ok := make([]bool, len(recs))
	nhits := make([]int, len(recs))
	var wg sync.WaitGroup
	for g := range maxClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(recs); i += maxClients {
				r := recs[i]
				err := r.err
				var sb searchBody
				if err == nil {
					err = json.Unmarshal(r.body, &sb)
				}
				if err == nil && sb.Partial {
					err = fmt.Errorf("query %q: partial response", r.q)
				}
				if err == nil {
					err = check(r.q, sb.Matches)
				}
				if err != nil {
					e.rep.fail(err)
					continue
				}
				ok[i], nhits[i] = true, len(sb.Matches)
			}
		}()
	}
	wg.Wait()
	var ss []sample
	var qs []string
	var hs []int
	for i, r := range recs {
		if !ok[i] {
			continue
		}
		qs, hs = append(qs, r.q), append(hs, nhits[i])
		if r.measured {
			ss = append(ss, sample{r.end, r.lat})
		}
	}
	return ss, measureStream(qs, hs)
}

// lookupMetrics reports the end-to-end and named metrics of a lookup
// workload.
func (e *env) lookupMetrics(s setupResult, endRSS float64, ss []sample, start time.Time) {
	r := e.rep
	t := timingOf(ss, start)
	e.setupMetrics(s, endRSS)
	e.cpuPerOp(t.N)
	r.latencies(r.named, "op", t, 0.5, 0.9)
	r.named("ops_per_s", "1/s", t.PerS, t.N, rateNote(t))
	r.latencies(r.named, "lookup", t, 0.5, 0.9, 0.99)
	r.named("lookup_qps", "1/s", t.PerS, t.N, rateNote(t))
}

func rateNote(t timing) string {
	return fmt.Sprintf("completions per second, median over %d chunks of the run", t.Chunks)
}

func (e *env) failRatio() {
	r := e.rep
	r.named("fail_ratio", "ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted, "errors, timeouts and wrong answers over operations attempted")
}

// startNode starts one passjoind with the given flags and waits until
// it is healthy.
func (e *env) startNode(name string, args ...string) (*daemon, map[string]any, error) {
	d, err := e.fl.start(name, args...)
	if err != nil {
		return nil, nil, err
	}
	h, err := waitHealthy(e.client, d, healthDeadline)
	return d, h, err
}

// lookupShortInputs generates the lookup-short corpus and query stream.
func lookupShortInputs(seed int64) (corpus, stream []string) {
	corpus = dataset.Author(shortN, seed)
	fresh := dataset.Author(streamLen, freshSeed(seed))
	return corpus, queryStream(rand.New(rand.NewSource(mutSeed(seed, 0))), corpus, fresh, streamLen, shortTau)
}

func runLookupShort(e *env) error {
	corpus, stream := lookupShortInputs(e.opt.seed)
	path, err := e.writeCorpus("author.txt", corpus)
	if err != nil {
		return err
	}
	su, err := e.setupRepeated(setups, func(int) ([]*daemon, error) {
		d, _, err := e.startNode("passjoind", "-tau", strconv.Itoa(shortTau), path)
		return []*daemon{d}, err
	})
	if err != nil {
		return err
	}
	ds := su.ds
	recs, start, err := e.lookupLoop(ds[0].url(), stream)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(ds)
	if err != nil {
		return err
	}
	e.fl.stop(ds...)

	ref, err := passjoin.NewSearcher(corpus, shortTau)
	if err != nil {
		return err
	}
	at := func(id int) string { return corpus[id] }
	ss, props := e.checkLookups(recs, func(q string, hits []hit) error {
		return checkIDDist(q, hits, fromMatches(ref.Search(q), at))
	})
	e.bruteCheck(recs, corpus, shortTau)
	e.rep.Streams["lookup"] = props
	e.lookupMetrics(su, rss, ss, start)
	e.failRatio()
	return nil
}

// bruteCheck checks the first bruteSample successful lookups against
// internal/bruteforce as well.
func (e *env) bruteCheck(recs []lookupRec, corpus []string, tau int) {
	n := 0
	for _, r := range recs {
		var sb searchBody
		if r.err != nil || json.Unmarshal(r.body, &sb) != nil {
			continue // already failed by checkLookups
		}
		if n == bruteSample {
			return
		}
		n++
		var ids []int
		for _, p := range bruteforce.Join([]string{r.q}, corpus, tau) {
			ids = append(ids, int(p.S))
		}
		if err := checkIDs(r.q, sb.Matches, ids); err != nil {
			e.rep.fail(err)
		}
	}
}

func runJoinLong(e *env) error {
	corpus := mixed(dataset.AuthorTitle, longN, longVocabs, e.opt.seed)
	path, err := e.writeCorpus("authortitle.txt", corpus)
	if err != nil {
		return err
	}
	su, err := e.setupRepeated(setups, func(int) ([]*daemon, error) {
		d, _, err := e.startNode("passjoind", "-tau", strconv.Itoa(longTau), path)
		return []*daemon{d}, err
	})
	if err != nil {
		return err
	}
	ds := su.ds
	body := []byte(strings.Join(corpus, "\n") + "\n")
	client := newClient(joinDeadline)
	type joinRec struct {
		body     []byte
		lat      time.Duration
		end      time.Time
		err      error
		measured bool
	}
	var recs []joinRec
	measured := false
	step := func(int) {
		b, lat, err := call(client, http.MethodPost, ds[0].url()+"/v1/join/self", "text/plain", body, http.StatusOK)
		recs = append(recs, joinRec{b, lat, time.Now(), err, measured})
	}
	step(0) // warm-up
	measured = true
	start, err := e.measure(1, minJoins, step)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(ds)
	if err != nil {
		return err
	}
	e.fl.stop(ds...)

	want, err := referenceJoin(corpus, longTau)
	if err != nil {
		return err
	}
	e.rep.attempt(len(recs))
	var ss []sample
	for _, r := range recs {
		if r.err == nil {
			r.err = checkJoin(r.body, corpus, want)
		}
		if r.err != nil {
			e.rep.fail(r.err)
			continue
		}
		if r.measured {
			ss = append(ss, sample{r.end, r.lat})
		}
	}
	r := e.rep
	t := timingOf(ss, start)
	e.setupMetrics(su, rss)
	e.cpuPerOp(t.N)
	r.latencies(r.named, "op", t, 0.5, 0.9)
	r.named("ops_per_s", "1/s", t.PerS, t.N, rateNote(t))
	r.named("join_s", "s", t.US[0.5]/1e6, t.N, "request sent to last streamed byte, median over chunks of five joins")
	r.named("join_pairs", "count", float64(len(want)), 1, "")
	e.failRatio()
	return nil
}

// churnOp is one operation of a churn client.
type churnOp struct {
	kind     byte // 's'earch, 'i'nsert, 'd'elete
	q        string
	id       int
	body     []byte // search response, decoded after the window
	delSeen  int    // deletes this client had acknowledged when the search was sent
	lat      time.Duration
	end      time.Time
	err      error
	measured bool
}

// churnClient is one closed-loop client of the churn workload. Its
// deletes only target its own earlier inserts, so base documents are
// never deleted.
type churnClient struct {
	rng      *rand.Rand
	queries  []string
	nextQ    int
	corpus   []string
	live     []int          // own inserted ids not yet deleted
	inserted map[int]string // own inserted id -> doc
	deleted  map[int]int    // own deleted id -> delete sequence number
	ops      []churnOp
}

func newChurnClients(corpus []string, seed int64) []*churnClient {
	fresh := mixed(dataset.QueryLog, churnQueriesPerClient*maxClients, churnVocabs, freshSeed(seed))
	cs := make([]*churnClient, maxClients)
	for c := range cs {
		rng := rand.New(rand.NewSource(mutSeed(seed, 10+c)))
		own := fresh[c*churnQueriesPerClient : (c+1)*churnQueriesPerClient]
		cs[c] = &churnClient{
			rng:      rng,
			queries:  queryStream(rng, corpus, own, churnQueriesPerClient, churnTau),
			corpus:   corpus,
			inserted: map[int]string{},
			deleted:  map[int]int{},
		}
	}
	return cs
}

// step issues the client's next operation against base and returns it.
func (c *churnClient) step(client *http.Client, base string, measured bool) churnOp {
	op := churnOp{measured: measured}
	switch r := c.rng.Float64(); {
	case r < churnSearchShare:
		op.kind, op.q, op.delSeen = 's', c.queries[c.nextQ%len(c.queries)], len(c.deleted)
		c.nextQ++
		op.body, op.lat, op.err = searchRaw(client, base, op.q)
	case r < churnSearchShare+churnInsertShare || len(c.live) == 0:
		op.kind, op.q = 'i', mutate(c.rng, c.corpus[c.rng.Intn(len(c.corpus))], 1+c.rng.Intn(3))
		op.id, op.lat, op.err = insertDoc(client, base, op.q)
		if op.err == nil {
			c.inserted[op.id] = op.q
			c.live = append(c.live, op.id)
		}
	default:
		k := c.rng.Intn(len(c.live))
		op.kind, op.id = 'd', c.live[k]
		c.live[k] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		op.lat, op.err = deleteDoc(client, base, op.id)
		if op.err == nil {
			c.deleted[op.id] = len(c.deleted)
		}
	}
	op.end = time.Now()
	c.ops = append(c.ops, op)
	return op
}

// liveBytes is the document bytes live in the index: the base corpus
// plus every client's inserts not deleted.
func liveBytes(corpus []string, cs []*churnClient) int64 {
	var n int64
	for _, s := range corpus {
		n += int64(len(s))
	}
	for _, c := range cs {
		for _, id := range c.live {
			n += int64(len(c.inserted[id]))
		}
	}
	return n
}

// checkChurnOps checks every search of the clients against the base
// reference and counts failures. It returns the measured latencies of
// successful reads and writes and the read stream's properties.
func (e *env) checkChurnOps(cs []*churnClient, corpus []string, ref *passjoin.Searcher) (reads, writes []sample, props streamProps) {
	view := churnView{tau: churnTau, base: corpus, inserted: map[int]string{}}
	for _, c := range cs {
		for id, doc := range c.inserted {
			view.inserted[id] = doc
		}
	}
	var qs []string
	var nh []int
	for _, c := range cs {
		e.rep.attempt(len(c.ops))
		for _, op := range c.ops {
			if op.err == nil && op.kind == 's' {
				var sb searchBody
				if op.err = json.Unmarshal(op.body, &sb); op.err == nil {
					seq, deleted := c.deleted, op.delSeen
					op.err = view.check(op.q, sb.Matches, ref.Search(op.q), func(id int) bool {
						s, ok := seq[id]
						return ok && s < deleted
					})
				}
				qs = append(qs, op.q)
				nh = append(nh, len(sb.Matches))
			}
			if op.err != nil {
				e.rep.fail(op.err)
				continue
			}
			if !op.measured {
				continue
			}
			if op.kind == 's' {
				reads = append(reads, sample{op.end, op.lat})
			} else {
				writes = append(writes, sample{op.end, op.lat})
			}
		}
	}
	return reads, writes, measureStream(qs, nh)
}

func runChurn(e *env) error {
	corpus := mixed(dataset.QueryLog, churnN, churnVocabs, e.opt.seed)
	path, err := e.writeCorpus("querylog.txt", corpus)
	if err != nil {
		return err
	}
	var walDir string
	su, err := e.setupRepeated(setups, func(i int) ([]*daemon, error) {
		walDir = filepath.Join(e.dir, fmt.Sprintf("wal-%d", i))
		d, _, err := e.startNode("passjoind", "-tau", strconv.Itoa(churnTau), "-wal", walDir, path)
		return []*daemon{d}, err
	})
	if err != nil {
		return err
	}
	ds := su.ds
	base := ds[0].url()
	cs := newChurnClients(corpus, e.opt.seed)
	measured := false
	step := func(c int) { cs[c].step(e.client, base, measured) }
	closedLoop(maxClients, warmup, warmup, 0, step)
	measured = true
	start, err := e.measure(maxClients, int(float64(minSamples(0.99))/churnSearchShare), step)
	if err != nil {
		return err
	}

	var st struct {
		Compactions int64 `json:"compactions"`
		WALBytes    int64 `json:"wal_bytes"`
	}
	if err := getJSON(e.client, base+"/v1/stats", &st); err != nil {
		return err
	}
	walBytes, err := dirBytes(walDir)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(ds)
	if err != nil {
		return err
	}
	e.fl.stop(ds...)

	ref, err := passjoin.NewSearcher(corpus, churnTau)
	if err != nil {
		return err
	}
	reads, writes, props := e.checkChurnOps(cs, corpus, ref)
	e.rep.Streams["search"] = props
	r := e.rep
	all := timingOf(append(append([]sample{}, reads...), writes...), start)
	rt, wt := timingOf(reads, start), timingOf(writes, start)
	e.setupMetrics(su, rss)
	e.cpuPerOp(all.N)
	r.latencies(r.named, "op", all, 0.5, 0.9)
	r.named("ops_per_s", "1/s", all.PerS, all.N, rateNote(all))
	r.latencies(r.named, "lookup", rt, 0.5, 0.9, 0.99)
	r.named("lookup_qps", "1/s", rt.PerS, rt.N, rateNote(rt))
	r.latencies(r.named, "write", wt, 0.5, 0.9, 0.99)
	r.named("space_amp", "ratio", float64(walBytes)/float64(liveBytes(corpus, cs)), 1, "bytes in the -wal directory over live document bytes, at the end of the run")
	r.named("compactions", "count", float64(st.Compactions), 1, "completed by the daemon during set-up, warm-up and the measured window")
	r.Notes = append(r.Notes, "WAL flush policy: the daemon default (-wal-sync off, no fsync per append)")
	e.failRatio()
	return nil
}

// coordInputs generates the coord-lookup corpus and query stream.
func coordInputs(seed int64) (corpus, stream []string) {
	corpus = dataset.Author(coordN, seed)
	fresh := dataset.Author(streamLen, freshSeed(seed))
	return corpus, queryStream(rand.New(rand.NewSource(mutSeed(seed, 1))), corpus, fresh, streamLen, coordTau)
}

// startCluster starts the members and the coordinator and loads corpus
// through the coordinator's POST /v1/docs on clients goroutines,
// timing each insert into insertLat when it is non-nil.
func (e *env) startCluster(corpus []string, clients int, insertLat *[]time.Duration) ([]*daemon, error) {
	var ds []*daemon
	coArgs := []string{"-coordinator"}
	for i := range coordMembers {
		d, _, err := e.startNode(fmt.Sprintf("member-%d", i), "-tau", strconv.Itoa(coordTau), "-dynamic")
		if d != nil {
			ds = append(ds, d)
		}
		if err != nil {
			return ds, err
		}
		coArgs = append(coArgs, "-member", d.url())
	}
	co, _, err := e.startNode("coordinator", coArgs...)
	if co != nil {
		ds = append(ds, co)
	}
	if err != nil {
		return ds, err
	}
	errs := make([]error, clients)
	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(corpus); i += clients {
				_, lat, err := insertDoc(e.client, co.url(), corpus[i])
				if err != nil {
					errs[c] = fmt.Errorf("loading the cluster: %w", err)
					return
				}
				lats[c] = append(lats[c], lat)
			}
		}()
	}
	wg.Wait()
	if insertLat != nil {
		for _, l := range lats {
			*insertLat = append(*insertLat, l...)
		}
	}
	return ds, errors.Join(errs...)
}

func runCoordLookup(e *env) error {
	corpus, stream := coordInputs(e.opt.seed)
	su, err := e.setupRepeated(coordSetups, func(int) ([]*daemon, error) {
		return e.startCluster(corpus, maxClients, nil)
	})
	if err != nil {
		return err
	}
	ds := su.ds
	co := ds[len(ds)-1]
	recs, start, err := e.lookupLoop(co.url(), stream)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(ds)
	if err != nil {
		return err
	}
	e.fl.stop(ds...)

	ref, err := passjoin.NewSearcher(corpus, coordTau)
	if err != nil {
		return err
	}
	at := func(id int) string { return corpus[id] }
	ss, props := e.checkLookups(recs, func(q string, hits []hit) error {
		return checkStringDist(q, hits, fromMatches(ref.Search(q), at))
	})
	e.rep.Streams["lookup"] = props
	e.lookupMetrics(su, rss, ss, start)
	e.failRatio()
	return nil
}
