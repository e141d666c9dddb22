package federation

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newCluster(t *testing.T, servers, relayObjects int) (*sim.Kernel, *oodb.Database, *Cluster) {
	t.Helper()
	k := sim.NewKernel()
	db := oodb.New(oodb.Config{NumObjects: 100, RelSeed: 1})
	c := New(Config{
		Kernel:            k,
		DB:                db,
		NumServers:        servers,
		Seed:              3,
		RelayCacheObjects: relayObjects,
	})
	return k, db, c
}

// driver is a test machine that runs one request through a resumable call.
type driver struct {
	call  server.RequestCall
	reply server.Reply
}

func (d *driver) Step(m *sim.Machine) {
	rep, done := d.call.Step(m)
	if !done {
		return
	}
	// Calls reuse their reply buffers; keep a private copy.
	d.reply = server.Reply{Items: append([]server.ReplyItem(nil), rep.Items...)}
	m.Finish()
}

// process runs req through a fresh call on b to completion, starting now,
// and returns the reply; the clock advances by the service time.
func process(k *sim.Kernel, b interface{ NewCall() server.RequestCall }, req server.Request) server.Reply {
	d := &driver{call: b.NewCall()}
	d.call.Begin(req)
	k.SpawnMachine("test", d)
	k.RunAll()
	return d.reply
}

// advanceTo moves the clock forward to t.
func advanceTo(k *sim.Kernel, t float64) {
	k.At(t, func() {})
	k.RunAll()
}

func readsOn(oids ...int) []workload.ReadOp {
	var out []workload.ReadOp
	for _, oid := range oids {
		out = append(out, workload.ReadOp{OID: oodb.OID(oid), Attr: 0})
	}
	return out
}

func TestOwnerPartition(t *testing.T) {
	_, _, c := newCluster(t, 4, 0)
	if c.NumServers() != 4 {
		t.Fatalf("NumServers = %d", c.NumServers())
	}
	counts := make([]int, 4)
	for oid := 0; oid < 100; oid++ {
		o := c.Owner(oodb.OID(oid))
		if o < 0 || o >= 4 {
			t.Fatalf("Owner(%d) = %d", oid, o)
		}
		counts[o]++
	}
	for i, n := range counts {
		if n != 25 {
			t.Fatalf("partition %d holds %d objects, want 25", i, n)
		}
	}
	// Range partition: contiguous.
	if c.Owner(0) != 0 || c.Owner(24) != 0 || c.Owner(25) != 1 || c.Owner(99) != 3 {
		t.Fatal("range partition boundaries wrong")
	}
}

func TestSingleNodeDelegates(t *testing.T) {
	k, _, c := newCluster(t, 1, 0)
	cs := c.Contact(0)
	var rep server.Reply
	rep = process(k, cs, server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(1, 2),
		Need:        readsOn(1, 2),
	})
	if len(rep.Items) != 2 {
		t.Fatalf("reply items = %d", len(rep.Items))
	}
}

func TestRemoteReadsAreRelayed(t *testing.T) {
	k, _, c := newCluster(t, 4, 0)
	cs := c.Contact(0)
	var rep server.Reply
	// OIDs 1 (home) and 80 (node 3).
	rep = process(k, cs, server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(1, 80),
		Need:        readsOn(1, 80),
	})
	if len(rep.Items) != 2 {
		t.Fatalf("reply items = %d, want 2", len(rep.Items))
	}
	if c.Node(0).Stats().QueriesServed != 1 || c.Node(3).Stats().QueriesServed != 1 {
		t.Fatal("home and owner nodes should each have served one request")
	}
	if c.Node(1).Stats().QueriesServed != 0 {
		t.Fatal("uninvolved node served a request")
	}
	_, _, relayed := c.RelayStats(0)
	if relayed != 1 {
		t.Fatalf("relayed reads = %d, want 1", relayed)
	}
}

func TestRemoteCostsBackboneTime(t *testing.T) {
	run := func(oid int) float64 {
		k, _, c := newCluster(t, 4, 0)
		cs := c.Contact(0)
		var elapsed float64
		start := k.Now()
		process(k, cs, server.Request{
			Granularity: core.AttributeCaching,
			Accesses:    readsOn(oid),
			Need:        readsOn(oid),
		})
		elapsed = k.Now() - start
		return elapsed
	}
	local := run(1)
	remote := run(80)
	if remote <= local {
		t.Fatalf("remote read (%v) not slower than local (%v)", remote, local)
	}
	if remote < 2*DefaultBackboneLatency {
		t.Fatalf("remote read %v cheaper than two backbone latencies", remote)
	}
}

func TestRelayCacheServesRepeats(t *testing.T) {
	k, _, c := newCluster(t, 2, 10)
	cs := c.Contact(0)
	req := server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(90),
		Need:        readsOn(90),
	}
	var first, second float64
	start := k.Now()
	process(k, cs, req)
	first = k.Now() - start
	start = k.Now()
	rep := process(k, cs, req)
	second = k.Now() - start
	if len(rep.Items) != 1 {
		t.Errorf("second reply items = %d", len(rep.Items))
	}
	hits, misses, _ := c.RelayStats(0)
	if hits != 1 || misses != 1 {
		t.Fatalf("relay hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if second >= first {
		t.Fatalf("relay-cached read (%v) not faster than cold (%v)", second, first)
	}
	// The owner still saw both requests (update model/heat), but the
	// second shipped nothing.
	if got := c.Node(1).Stats().QueriesServed; got != 2 {
		t.Fatalf("owner served %d requests, want 2", got)
	}
}

func TestRelayCacheRespectsLeases(t *testing.T) {
	k, db, c := newCluster(t, 2, 10)
	// Give object 90's attribute 0 a write history so leases are short.
	cs := c.Contact(0)
	for i := 0; i < 4; i++ {
		db.Write(90, 0)
		process(k, c.Node(1), server.Request{
			Granularity: core.AttributeCaching,
			Accesses:    readsOn(90),
		})
		advanceTo(k, k.Now()+10)
	}
	// Prime the relay cache.
	process(k, cs, server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(90),
		Need:        readsOn(90),
	})
	// Far past the ~10s lease, the relay must refetch, not serve stale.
	advanceTo(k, k.Now()+1000)
	process(k, cs, server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(90),
		Need:        readsOn(90),
	})
	hits, _, _ := c.RelayStats(0)
	if hits != 0 {
		t.Fatalf("relay served %d stale hits", hits)
	}
}

func TestValidation(t *testing.T) {
	k := sim.NewKernel()
	db := oodb.New(oodb.Config{NumObjects: 10})
	cases := []func(){
		func() { New(Config{DB: db, NumServers: 2}) },
		func() { New(Config{Kernel: k, NumServers: 2}) },
		func() { New(Config{Kernel: k, DB: db, NumServers: 0}) },
		func() { New(Config{Kernel: k, DB: db, NumServers: 2}).Contact(5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestUpdatesApplyAtOwner(t *testing.T) {
	k, db, c := newCluster(t, 2, 0)
	// Rebuild with updates on.
	k = sim.NewKernel()
	db = oodb.New(oodb.Config{NumObjects: 100, RelSeed: 1})
	c = New(Config{Kernel: k, DB: db, NumServers: 2, Seed: 3, UpdateProb: 1})
	cs := c.Contact(0)
	process(k, cs, server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(1, 90),
		Need:        readsOn(1, 90),
	})
	if db.AttrVersion(1, 0) != 1 || db.AttrVersion(90, 0) != 1 {
		t.Fatalf("updates not applied at both partitions: v1=%d v90=%d",
			db.AttrVersion(1, 0), db.AttrVersion(90, 0))
	}
	if c.Node(0).Stats().UpdatesApplied != 1 || c.Node(1).Stats().UpdatesApplied != 1 {
		t.Fatal("update accounting not split across owners")
	}
}
