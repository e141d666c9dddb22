package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// liveSpec is one live workload: the 10 Table 1 clients' query streams
// replayed unpaced, as a closed loop over nproc keep-alive connections
// (each mobile client waits for its reply), with mcload's protocol: a
// probe per read, then the query's writes, then one fetch of the needs.
type liveSpec struct {
	name    string
	file    bool    // durable file backend with group commit, else memory
	update  float64 // per-object update probability U
	queries int     // queries per round, split evenly over the clients
}

var (
	// liveRead runs HTTP/JSON, serve's session locking and the shared
	// cache layers, and never touches storage.
	liveRead = liveSpec{name: "live-read", update: 0.1, queries: 400}
	// liveWrite is the same path over file:<dir>?sync=group at Figure 7's
	// high-update point, where group-commit waits set the latency.
	liveWrite = liveSpec{name: "live-write", file: true, update: 0.5, queries: 10}
)

const livePolicy = "ewma-0.5"

// service is one booted mccached: store, handler and listener.
type service struct {
	st   serve.Store
	svc  *serve.Service
	base string
	done chan error
}

// boot makes the calls mccached makes: serve.Open, NewHandler, NewService
// on 127.0.0.1:0, then Serve.
func boot(dsn string, cfg serve.Config) (*service, error) {
	st, err := serve.Open(dsn, cfg)
	if err != nil {
		return nil, err
	}
	s := &service{st: st, svc: serve.NewService("127.0.0.1:0", serve.NewHandler(st, serve.HTTPConfig{})), done: make(chan error, 1)}
	addr, err := s.svc.Listen()
	if err != nil {
		closeStore(st)
		return nil, err
	}
	s.base = "http://" + addr
	go func() { s.done <- s.svc.Serve() }()
	return s, nil
}

// stop drains the listener and waits for Serve to return; the store stays
// open.
func (s *service) stop() error {
	err := s.svc.Shutdown(0)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

func closeStore(st serve.Store) error {
	if c, ok := st.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// caller issues one client's operations, over HTTP or directly.
type caller interface {
	read(client int, rd workload.ReadOp) (serve.ReadResponse, error)
	write(oid oodb.OID, attrs []uint8) (serve.WriteResponse, error)
	fetch(client int, need []workload.ReadOp) (serve.FetchResponse, error)
}

// httpCaller speaks the wire protocol over keep-alive connections.
type httpCaller struct {
	c    *http.Client
	base string
}

func (h httpCaller) read(client int, rd workload.ReadOp) (r serve.ReadResponse, err error) {
	err = h.post("/v1/read", serve.ReadRequest{Client: client, OID: uint32(rd.OID), Attr: uint8(rd.Attr), Mode: "probe"}, &r)
	return r, err
}

func (h httpCaller) write(oid oodb.OID, attrs []uint8) (r serve.WriteResponse, err error) {
	err = h.post("/v1/write", serve.WriteRequest{OID: uint32(oid), Attrs: attrs}, &r)
	return r, err
}

func (h httpCaller) fetch(client int, need []workload.ReadOp) (r serve.FetchResponse, err error) {
	req := serve.FetchRequest{Client: client, Reads: make([]serve.WireRead, len(need))}
	for i, rd := range need {
		req.Reads[i] = serve.WireRead{OID: uint32(rd.OID), Attr: uint8(rd.Attr)}
	}
	err = h.post("/v1/fetch", req, &r)
	return r, err
}

func (h httpCaller) post(path string, body, dst any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // keep the connection reusable
	return err
}

// directCaller calls the Store with no HTTP in between. With count set it
// charges storage puts to the operation that issued them, which is exact
// only when one goroutine drives the store.
type directCaller struct {
	st    serve.Store
	count bool

	writes, fetches      int
	writePuts, fetchPuts uint64
}

func (d *directCaller) puts() uint64 {
	if f, ok := d.st.(*serve.File); ok && d.count {
		return f.Storage().Stats().Puts
	}
	return 0
}

func (d *directCaller) read(client int, rd workload.ReadOp) (serve.ReadResponse, error) {
	r, err := d.st.Read(client, rd.OID, rd.Attr, serve.ModeProbe)
	return serve.ReadResponse{State: r.State.String(), OID: uint32(r.Item.OID), Attr: uint8(r.Item.Attr),
		Version: r.Version, ExpiresAt: r.ExpiresAt, Error: r.Error, Now: r.Now}, err
}

func (d *directCaller) write(oid oodb.OID, attrs []uint8) (serve.WriteResponse, error) {
	ids := make([]oodb.AttrID, len(attrs))
	for i, a := range attrs {
		ids[i] = oodb.AttrID(a)
	}
	before := d.puts()
	v, err := d.st.Write(oid, ids)
	d.writes++
	d.writePuts += d.puts() - before
	return serve.WriteResponse{Version: v}, err
}

func (d *directCaller) fetch(client int, need []workload.ReadOp) (serve.FetchResponse, error) {
	before := d.puts()
	items, err := d.st.Fetch(client, need)
	d.fetches++
	d.fetchPuts += d.puts() - before
	out := serve.FetchResponse{Items: make([]serve.FetchedWire, len(items))}
	for i, it := range items {
		out.Items[i] = serve.FetchedWire{OID: uint32(it.Item.OID), Attr: uint8(it.Item.Attr), Version: it.Version, ExpiresAt: it.ExpiresAt}
	}
	return out, err
}

// conn is one closed-loop connection's worth of load and what it saw.
type conn struct {
	spec liveSpec
	call caller

	readMS, fetchMS, writeMS, queryMS []float64
	calls, failed                     int64
	problems                          []string
	queries                           int

	// acked counts acknowledged writes per (object, attribute); maxVersion
	// is the newest object version a write acknowledged.
	acked      map[oodb.OID]*[oodb.NumAttrs]uint64
	maxVersion map[oodb.OID]uint64
}

func newConn(spec liveSpec, call caller) *conn {
	return &conn{spec: spec, call: call,
		acked: map[oodb.OID]*[oodb.NumAttrs]uint64{}, maxVersion: map[oodb.OID]uint64{}}
}

func (d *conn) fail(format string, args ...any) {
	d.failed++
	if len(d.problems) < 8 {
		d.problems = append(d.problems, fmt.Sprintf(format, args...))
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// query replays one query of client id: probe every read, then — if any
// read missed — apply the update model and fetch the needs.
func (d *conn) query(id int, w *experiment.ClientWorkload, q *workload.Query, scheduled *float64) {
	*scheduled = w.Arrival.Next(w.Stream, *scheduled) // keeps the stream in step; no pacing
	w.Gen.NextInto(w.Stream, q)
	start := time.Now()
	need := make([]workload.ReadOp, 0, len(q.Reads))
	for _, rd := range q.Reads {
		d.calls++
		t := time.Now()
		r, err := d.call.read(id, rd)
		if err != nil {
			d.fail("read client %d oid %d attr %d: %v", id, rd.OID, rd.Attr, err)
			return
		}
		d.readMS = append(d.readMS, msSince(t))
		if r.OID != uint32(rd.OID) || r.Attr != uint8(rd.Attr) {
			d.fail("read (%d,%d) answered for unit (%d,%d)", rd.OID, rd.Attr, r.OID, r.Attr)
		}
		switch r.State {
		case core.Hit.String():
			continue
		case core.Stale.String(), core.Miss.String():
		default:
			d.fail("read (%d,%d) returned state %q", rd.OID, rd.Attr, r.State)
		}
		need = append(need, rd)
	}
	if len(need) > 0 {
		if d.spec.update > 0 && !d.writeUpdates(q, w) {
			return
		}
		d.calls++
		t := time.Now()
		r, err := d.call.fetch(id, need)
		if err != nil {
			d.fail("fetch client %d (%d reads): %v", id, len(need), err)
			return
		}
		d.fetchMS = append(d.fetchMS, msSince(t))
		d.checkFetch(need, r)
	}
	d.queries++
	d.queryMS = append(d.queryMS, msSince(start))
}

// writeUpdates is mcload's update model: each distinct object the query
// read flips a U coin on the client's update stream, and a winner is
// written once, covering every attribute the query read on it.
func (d *conn) writeUpdates(q *workload.Query, w *experiment.ClientWorkload) bool {
	seen := map[oodb.OID]bool{}
	for _, rd := range q.Reads {
		if seen[rd.OID] {
			continue
		}
		seen[rd.OID] = true
		if !w.UpdateStream.Bool(d.spec.update) {
			continue
		}
		var mask uint16
		var attrs []uint8
		for _, r2 := range q.Reads {
			if r2.OID == rd.OID && mask&(1<<r2.Attr) == 0 {
				mask |= 1 << r2.Attr
				attrs = append(attrs, uint8(r2.Attr))
			}
		}
		d.calls++
		t := time.Now()
		r, err := d.call.write(rd.OID, attrs)
		if err != nil {
			d.fail("write oid %d: %v", rd.OID, err)
			return false
		}
		d.writeMS = append(d.writeMS, msSince(t))
		acked := d.acked[rd.OID]
		if acked == nil {
			acked = new([oodb.NumAttrs]uint64)
			d.acked[rd.OID] = acked
		}
		for _, a := range attrs {
			acked[a]++
		}
		if r.Version < d.maxVersion[rd.OID] || r.Version == 0 {
			d.fail("write oid %d acknowledged version %d after %d", rd.OID, r.Version, d.maxVersion[rd.OID])
		}
		d.maxVersion[rd.OID] = r.Version
	}
	return true
}

// checkFetch requires exactly the covering units of the needs, deduplicated
// in first-seen order, each at least as new as this connection's own
// acknowledged writes to it.
func (d *conn) checkFetch(need []workload.ReadOp, r serve.FetchResponse) {
	var want []serve.WireRead
	seen := map[serve.WireRead]bool{}
	for _, rd := range need {
		u := serve.WireRead{OID: uint32(rd.OID), Attr: uint8(rd.Attr)}
		if !seen[u] {
			seen[u] = true
			want = append(want, u)
		}
	}
	if len(r.Items) != len(want) {
		d.fail("fetch of %d units returned %d", len(want), len(r.Items))
		return
	}
	for i, it := range r.Items {
		if it.OID != want[i].OID || it.Attr != want[i].Attr {
			d.fail("fetch item %d is (%d,%d), want (%d,%d)", i, it.OID, it.Attr, want[i].OID, want[i].Attr)
			return
		}
		if acked := d.acked[oodb.OID(it.OID)]; acked != nil && it.Version < acked[it.Attr] {
			d.fail("fetch (%d,%d) version %d older than %d acknowledged writes", it.OID, it.Attr, it.Version, acked[it.Attr])
		}
	}
}

// generators builds the clients' workload generators, as mcload does.
func generators(seed uint64, spec liveSpec) []experiment.ClientWorkload {
	cfg := liveConfig(seed, spec.update)
	db := experiment.NewDatabase(cfg)
	gens := make([]experiment.ClientWorkload, cfg.NumClients)
	for i := range gens {
		gens[i] = experiment.NewClientWorkload(cfg, db, i)
	}
	return gens
}

// load runs perClient queries of every client over len(conns)
// closed-loop connections; connection k replays clients k, k+n, ...
// round-robin. It returns the wall time of the load.
func load(conns []*conn, gens []experiment.ClientWorkload, perClient int) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for k, d := range conns {
		wg.Add(1)
		go func(k int, d *conn) {
			defer wg.Done()
			scheduled := make([]float64, len(gens))
			var q workload.Query
			for n := 0; n < perClient; n++ {
				for id := k; id < len(gens); id += len(conns) {
					if d.failed > 0 {
						return // the run is already incorrect; do not wait out more timeouts
					}
					d.query(id, &gens[id], &q, &scheduled[id])
				}
			}
		}(k, d)
	}
	wg.Wait()
	return seconds(time.Since(start))
}

// liveConfig is the scenario the live clients replay: Table 1 defaults
// with attribute caching, which the live layer serves.
func liveConfig(seed uint64, update float64) experiment.Config {
	sc, err := experiment.New(
		experiment.WithSeed(seed),
		experiment.WithGranularity(core.AttributeCaching),
		experiment.WithPolicy(livePolicy),
		experiment.WithUpdateProb(update),
	)
	if err != nil {
		panic(err) // constant options
	}
	return sc.Config()
}

func storeConfig(seed uint64) serve.Config {
	return serve.Config{Granularity: core.AttributeCaching, Policy: livePolicy, RelSeed: experiment.RelSeed(seed)}
}

// liveTotals accumulates a pass's rounds.
type liveTotals struct {
	readMS, fetchMS, writeMS hist
	calls, queries           int64
	directRead               float64 // median direct read, µs (traced)

	reads, hits, stales, evictions uint64 // from serve.Stats
	syncs                          uint64
	diskPerLive, compactions       []float64
	recovered                      []float64
	putP50, putP99                 []float64
	allocBytes, allocs             uint64
}

// runLive runs rounds until the pass's seconds are spent. A round boots a
// fresh service, replays spec.queries queries, and restarts the service;
// live-write's restart recovers the store from its log and checks that
// every acknowledged write survived.
func runLive(o options, spec liveSpec, traced bool) (*pass, error) {
	p := &pass{}
	var tot liveTotals
	// Each round replays the clients' next queries, so a run covers
	// thousands of distinct queries and a seed's figures do not hang on
	// one small sample of its streams.
	streams := generators(o.seed, spec)
	start := time.Now()
	for round := 0; round < 2 || time.Since(start).Seconds() < o.seconds; round++ {
		if err := liveRound(o, spec, round, streams, traced, p, &tot); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := directPass(o, spec, p, &tot); err != nil {
			return nil, err
		}
	}

	p.set("read_p50_ms", "ms", tot.readMS.quantile(0.5))
	p.set("read_p99_ms", "ms", tot.readMS.quantile(0.99))
	p.set("fetch_p50_ms", "ms", tot.fetchMS.quantile(0.5))
	p.set("fetch_p99_ms", "ms", tot.fetchMS.quantile(0.99))
	p.set("write_p50_ms", "ms", tot.writeMS.quantile(0.5))
	p.set("write_p99_ms", "ms", tot.writeMS.quantile(0.99))
	p.set("alloc_bytes_per_event", "B", float64(tot.allocBytes)/float64(tot.calls))
	p.set("allocs_per_event", "count", float64(tot.allocs)/float64(tot.calls))
	p.set("http.calls_per_query", "count", float64(tot.calls)/float64(tot.queries))
	p.set("serve.hit_ratio", "share", float64(tot.hits)/float64(tot.reads))
	p.set("serve.stale_ratio", "share", float64(tot.stales)/float64(tot.reads))
	p.set("serve.evictions_per_read", "count", float64(tot.evictions)/float64(tot.reads))
	if spec.file {
		p.set("durable.ops_per_s", "1/s", median(p.opsRate))
		p.set("durable.latency_p50_ms", "ms", quantile(p.latency, 0.5))
		p.set("durable.latency_p99_ms", "ms", quantile(p.latency, 0.99))
		p.set("durable.write_p50_ms", "ms", tot.writeMS.quantile(0.5))
		p.set("durable.write_p99_ms", "ms", tot.writeMS.quantile(0.99))
		p.set("durable.fetch_p50_ms", "ms", tot.fetchMS.quantile(0.5))
		p.set("durable.fetch_p99_ms", "ms", tot.fetchMS.quantile(0.99))
		p.set("durable.recover_s", "s", interquartileMean(p.restart))
		p.set("storage.syncs_per_op", "count", float64(tot.syncs)/float64(tot.calls))
		p.set("storage.disk_per_live_byte", "B/B", median(tot.diskPerLive))
		p.set("storage.compactions", "count", median(tot.compactions))
		p.set("storage.recovered_records", "count", median(tot.recovered))
		if traced {
			p.set("storage.put_p50_ms", "ms", median(tot.putP50))
			p.set("storage.put_p99_ms", "ms", median(tot.putP99))
		}
	}
	if traced {
		p.set("http.overhead_us", "us", 1000*tot.readMS.quantile(0.5)-tot.directRead)
	}

	p.note("%s rounds=%d queries=%d http_calls=%d", spec.name, len(p.setup)/bootReps, tot.queries, tot.calls)
	for _, op := range []struct {
		name string
		ms   *hist
	}{{"read", &tot.readMS}, {"fetch", &tot.fetchMS}, {"write", &tot.writeMS}} {
		p.note("%s %s_p50_ms=%.6g %s_p99_ms=%.6g (samples=%d)", spec.name,
			op.name, op.ms.quantile(0.5), op.name, op.ms.quantile(0.99), op.ms.n)
	}
	p.note("%s hit_ratio=%.4g stale_ratio=%.4g (wall-clock leases)",
		spec.name, float64(tot.hits)/float64(tot.reads), float64(tot.stales)/float64(tot.reads))
	return p, nil
}

// absorb adds a round's conns, which were busy for the given seconds, to
// the totals and returns the reads they sent.
func (tot *liveTotals) absorb(p *pass, conns []*conn, busy float64) (reads uint64) {
	var calls, queries int64
	for _, d := range conns {
		reads += uint64(len(d.readMS))
		tot.readMS.add(d.readMS...)
		tot.fetchMS.add(d.fetchMS...)
		tot.writeMS.add(d.writeMS...)
		tot.calls += d.calls
		tot.queries += int64(d.queries)
		p.latency = append(p.latency, d.queryMS...)
		calls += d.calls
		queries += int64(d.queries)
		p.attempted += d.calls
		p.failed += d.failed
		for _, msg := range d.problems {
			if len(p.problems) < 8 {
				p.problems = append(p.problems, msg)
			}
		}
	}
	p.round(float64(calls), float64(queries), busy)
	return reads
}

// bootReps is how many times a round sets up and restarts the service:
// both take milliseconds, so one sample each would be mostly noise.
const bootReps = 8

func liveRound(o options, spec liveSpec, round int, streams []experiment.ClientWorkload, traced bool, p *pass, tot *liveTotals) error {
	dsnFor := func(rep int) (dsn, dir string) {
		if !spec.file {
			return "memory", ""
		}
		dir = filepath.Join(o.out, fmt.Sprintf("store-%s-%d-%d-%d", spec.name, os.Getpid(), round, rep))
		return "file:" + dir + "?sync=group", dir
	}

	// Set up bootReps times on fresh stores; the last one takes the load.
	var svc *service
	var dsn string
	for rep := 0; rep < bootReps; rep++ {
		var dir string
		dsn, dir = dsnFor(rep)
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		runtime.GC() // a service boots in a fresh process, with no garbage to collect
		t0 := time.Now()
		s, err := boot(dsn, storeConfig(o.seed))
		if err != nil {
			return fmt.Errorf("%s boot: %w", spec.name, err)
		}
		generators(o.seed, spec) // timed as set-up; the load continues the pass's streams
		p.setup = append(p.setup, seconds(time.Since(t0)))
		if rep == bootReps-1 {
			svc = s
			break
		}
		if err := errors.Join(s.stop(), closeStore(s.st)); err != nil {
			return fmt.Errorf("%s shutdown: %w", spec.name, err)
		}
	}

	file, _ := svc.st.(*serve.File)
	if traced {
		svc.st.Register(obs.New(0))
	}
	var before storage.Stats
	if file != nil {
		before = file.Storage().Stats()
	}
	workers := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	httpc := &http.Client{Transport: transport, Timeout: 10 * time.Second}
	conns := make([]*conn, workers)
	for k := range conns {
		conns[k] = newConn(spec, httpCaller{c: httpc, base: svc.base})
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	busy := load(conns, streams, spec.queries/len(streams))
	runtime.ReadMemStats(&m1)
	tot.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	tot.allocs += m1.Mallocs - m0.Mallocs
	transport.CloseIdleConnections()
	sent := tot.absorb(p, conns, busy)

	st := svc.st.Stats()
	tot.reads += st.Reads
	tot.hits += st.Hits
	tot.stales += st.Stales
	tot.evictions += st.Evictions
	if st.Reads != sent {
		p.fail("store counted %d reads, clients sent %d", st.Reads, sent)
	}
	if file != nil {
		after := file.Storage().Stats()
		tot.syncs += after.Syncs - before.Syncs
		tot.compactions = append(tot.compactions, float64(after.Compactions-before.Compactions))
		tot.diskPerLive = append(tot.diskPerLive, float64(after.DiskBytes)/float64(after.LiveBytes))
		if traced {
			_, _, put50, put99 := file.Storage().LatencySummary()
			tot.putP50 = append(tot.putP50, put50)
			tot.putP99 = append(tot.putP99, put99)
		}
	}
	if err := svc.stop(); err != nil {
		return fmt.Errorf("%s shutdown: %w", spec.name, err)
	}
	if err := closeStore(svc.st); err != nil {
		return fmt.Errorf("%s close: %w", spec.name, err)
	}

	// Restart bootReps times; on the file backend each one recovers the
	// round's log.
	for rep := 0; rep < bootReps; rep++ {
		runtime.GC()
		t1 := time.Now()
		again, err := boot(dsn, storeConfig(o.seed))
		if err != nil {
			return fmt.Errorf("%s restart: %w", spec.name, err)
		}
		p.restart = append(p.restart, seconds(time.Since(t1)))
		if f, ok := again.st.(*serve.File); ok && rep == 0 {
			tot.recovered = append(tot.recovered, float64(f.Storage().Stats().RecoveredRecords))
			checkRecovered(p, f, conns)
		}
		if err := errors.Join(again.stop(), closeStore(again.st)); err != nil {
			return fmt.Errorf("%s shutdown after restart: %w", spec.name, err)
		}
	}
	return nil
}

// durablePass is live-read's extra traced pass: two rounds of live-write,
// traced, keeping only the storage.* and durable.* values. live-write's
// throughput follows the host's timer wake-ups too closely to be gated
// (see README.md), so the durable store's layer is measured here, in a
// gated workload's traced run.
func durablePass(o options) (*pass, error) {
	o.seconds = 0
	p, err := runLive(o, liveWrite, true)
	if err != nil {
		return nil, err
	}
	layer := p.layer
	p.layer = nil
	for name, v := range layer {
		if strings.HasPrefix(name, "storage.") || strings.HasPrefix(name, "durable.") {
			p.set(name, v.Unit, v.Value)
		}
	}
	return p, nil
}

// checkRecovered requires every object to come back at least as new as
// its last acknowledged write, attribute by attribute and as a whole. It
// reads origin versions through the recovered store's in-memory engine,
// which installs nothing on disk.
func checkRecovered(p *pass, f *serve.File, conns []*conn) {
	acked := map[oodb.OID]*[oodb.NumAttrs]uint64{}
	newest := map[oodb.OID]uint64{}
	for _, d := range conns {
		for oid, counts := range d.acked {
			sum := acked[oid]
			if sum == nil {
				sum = new([oodb.NumAttrs]uint64)
				acked[oid] = sum
			}
			for a, n := range counts {
				sum[a] += n
			}
		}
		for oid, v := range d.maxVersion {
			newest[oid] = max(newest[oid], v)
		}
	}
	var reads []workload.ReadOp
	for oid := range acked {
		for a := 0; a < oodb.NumAttrs; a++ {
			reads = append(reads, workload.ReadOp{OID: oid, Attr: oodb.AttrID(a)})
		}
	}
	if len(reads) == 0 {
		return
	}
	const checker = 1 << 30 // a session no load client uses
	items, err := f.Memory.Fetch(checker, reads)
	p.attempted++
	if err != nil {
		p.fail("recovery read-back: %v", err)
		return
	}
	object := map[oodb.OID]uint64{}
	for _, it := range items {
		object[it.Item.OID] += it.Version
		if want := acked[it.Item.OID][it.Item.Attr]; it.Version < want {
			p.fail("recovered (%d,%d) at version %d, %d writes were acknowledged", it.Item.OID, it.Item.Attr, it.Version, want)
		}
	}
	for oid, v := range newest {
		if object[oid] < v {
			p.fail("recovered object %d at version %d, version %d was acknowledged", oid, object[oid], v)
		}
	}
}

// directPass replays one round's op stream straight against a fresh store
// (no HTTP) over the same number of goroutines, for the serve.*_us layer
// times; live-write adds a one-goroutine pass that charges storage puts to
// the write or fetch that issued them.
func directPass(o options, spec liveSpec, p *pass, tot *liveTotals) error {
	st, dir, err := openFresh(o, spec, "direct")
	if err != nil {
		return err
	}
	conns := make([]*conn, runtime.NumCPU())
	for k := range conns {
		conns[k] = newConn(spec, &directCaller{st: st})
	}
	gens := generators(o.seed, spec)
	load(conns, gens, spec.queries/len(gens))
	var readMS, fetchMS, writeMS []float64
	for _, d := range conns {
		readMS = append(readMS, d.readMS...)
		fetchMS = append(fetchMS, d.fetchMS...)
		writeMS = append(writeMS, d.writeMS...)
		p.attempted += d.calls
		p.failed += d.failed
		p.problems = append(p.problems, d.problems...)
	}
	tot.directRead = 1000 * quantile(readMS, 0.5)
	p.set("serve.read_us", "us", tot.directRead)
	p.set("serve.fetch_us", "us", 1000*quantile(fetchMS, 0.5))
	p.set("serve.write_us", "us", 1000*quantile(writeMS, 0.5))
	if err := closeStore(st); err != nil {
		return err
	}
	os.RemoveAll(dir)
	if !spec.file {
		return nil
	}

	st, dir, err = openFresh(o, spec, "count")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	counter := &directCaller{st: st, count: true}
	d := newConn(spec, counter)
	load([]*conn{d}, generators(o.seed, spec), 1)
	p.attempted += d.calls
	p.failed += d.failed
	p.problems = append(p.problems, d.problems...)
	if counter.writes == 0 || counter.fetches == 0 {
		p.fail("storage attribution pass issued %d writes and %d fetches", counter.writes, counter.fetches)
	} else {
		p.set("storage.puts_per_write", "count", float64(counter.writePuts)/float64(counter.writes))
		p.set("storage.puts_per_fetch", "count", float64(counter.fetchPuts)/float64(counter.fetches))
	}
	return closeStore(st)
}

func openFresh(o options, spec liveSpec, tag string) (serve.Store, string, error) {
	if !spec.file {
		st, err := serve.Open("memory", storeConfig(o.seed))
		return st, "", err
	}
	dir := filepath.Join(o.out, fmt.Sprintf("store-%s-%s-%d", spec.name, tag, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	st, err := serve.Open("file:"+dir+"?sync=group", storeConfig(o.seed))
	if err != nil {
		return nil, "", errors.Join(err, os.RemoveAll(dir))
	}
	return st, dir, nil
}
