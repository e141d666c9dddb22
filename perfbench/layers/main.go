// Command layers is the benchmark's layer replay: it records one simulated
// client's reference stream (client 0 of the workload's scenario, drawn
// exactly as the simulator draws it) and replays it through the cache
// layers at the workload's cache sizes, timing batches of calls — a clock
// read costs as much as a lookup. It prints one JSON object of median
// nanoseconds per call. perfbench runs it in the traced pass only, so a
// signature change in these layers breaks that pass and never the gated
// numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/workload"
)

const (
	queries = 3000 // length of the recorded stream
	batch   = 128  // reads per timed batch
	reps    = 3    // replays of the stream, each from empty layers
)

// workloads gives each benchmark workload's granularity and update
// probability; cache sizes and policy are Table 1's.
var workloads = map[string]struct {
	gran   core.Granularity
	update float64
}{
	"sim-fleet":  {core.HybridCaching, 0.1},
	"live-read":  {core.AttributeCaching, 0.1},
	"live-write": {core.AttributeCaching, 0.5},
}

// read is one access of the recorded stream.
type read struct {
	it  oodb.Item
	now float64
}

func main() {
	seed := flag.Uint64("seed", 1, "workload seed")
	name := flag.String("workload", "sim-fleet", "benchmark workload whose sizes to use")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "layers: unknown -workload %q\n", *name)
		os.Exit(1)
	}
	sc, err := experiment.New(
		experiment.WithSeed(*seed),
		experiment.WithGranularity(w.gran),
		experiment.WithPolicy("ewma-0.5"),
		experiment.WithUpdateProb(w.update),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	cfg := sc.Config()
	db := experiment.NewDatabase(cfg)
	factory, err := replacement.Parse(cfg.Policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}

	out := map[string]float64{}
	stream, writes, perQuery := record(cfg, db, w.gran)
	out["workload.next_query_ns"] = perQuery
	capacity := cfg.StorageObjects * core.ItemCost(oodb.ObjectItem(0))
	out["core.lookup_ns"], out["core.insert_ns"] = replayCore(stream, capacity, factory)
	out["replacement.access_ns"], out["replacement.victim_ns"] = replayPolicy(stream, capacity/core.ItemCost(stream[0].it), factory)
	memEntries := cfg.MemBufferObjects
	if w.gran.UsesAttributeItems() {
		memEntries = memEntries * oodb.ObjectSize / oodb.AttrSize
	}
	out["buffer.get_ns"], out["buffer.put_ns"] = replayBuffer(stream, memEntries)
	out["coherence.observe_ns"], out["coherence.expires_ns"], out["coherence.oracle_ns"] = replayCoherence(stream, writes, cfg)

	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// record draws client 0's queries as the simulated client does
// (Arrival.Next, then Gen.NextInto, on the client's stream) and the
// update model's writes (one U coin per distinct object read). It returns
// the reads, the writes, and the generator's ns per query.
func record(cfg experiment.Config, db *oodb.Database, g core.Granularity) (reads, writes []read, nsPerQuery float64) {
	w := experiment.NewClientWorkload(cfg, db, 0)
	type drawn struct {
		now   float64
		reads []workload.ReadOp
	}
	var q workload.Query
	now := 0.0
	var perBatch []float64
	const perTimed = batch / 8 // queries per timed batch: a query is ~60 reads
	for n := 0; n < queries; n += perTimed {
		qs := make([]drawn, 0, perTimed)
		t := time.Now()
		for i := 0; i < perTimed; i++ {
			now = w.Arrival.Next(w.Stream, now)
			w.Gen.NextInto(w.Stream, &q)
			qs = append(qs, drawn{now, append([]workload.ReadOp(nil), q.Reads...)})
		}
		perBatch = append(perBatch, float64(time.Since(t))/perTimed)
		for _, q := range qs {
			seen := map[oodb.OID]bool{}
			for _, rd := range q.reads {
				reads = append(reads, read{core.CoverItem(g, rd.OID, rd.Attr), q.now})
				if seen[rd.OID] {
					continue
				}
				seen[rd.OID] = true
				if !w.UpdateStream.Bool(cfg.UpdateProb) {
					continue
				}
				var mask uint16
				for _, r2 := range q.reads {
					if r2.OID == rd.OID && mask&(1<<r2.Attr) == 0 {
						mask |= 1 << r2.Attr
						writes = append(writes, read{oodb.AttrItem(rd.OID, r2.Attr), q.now})
					}
				}
			}
		}
	}
	return reads, writes, median(perBatch)
}

// replayCore runs the storage cache: per batch, time every Lookup, then
// time the Inserts of the batch's misses and stale copies.
func replayCore(stream []read, capacity int, factory replacement.Factory) (lookupNS, insertNS float64) {
	var lookups, inserts []float64
	for r := 0; r < reps; r++ {
		c := core.NewCache(capacity, factory())
		var need []read
		for lo := 0; lo < len(stream); lo += batch {
			b := stream[lo:min(lo+batch, len(stream))]
			need = need[:0]
			t := time.Now()
			for _, rd := range b {
				if _, st := c.Lookup(rd.it, rd.now); st != core.Hit {
					need = append(need, rd)
				}
			}
			lookups = append(lookups, float64(time.Since(t))/float64(len(b)))
			if len(need) == 0 {
				continue
			}
			t = time.Now()
			for _, rd := range need {
				c.Insert(rd.it, core.Entry{ExpiresAt: rd.now + 600, FetchedAt: rd.now}, rd.now)
			}
			inserts = append(inserts, float64(time.Since(t))/float64(len(need)))
		}
	}
	return median(lookups), median(inserts)
}

// replayPolicy runs a bare replacement policy holding slots items: per
// batch, time OnAccess on the resident reads, then one eviction cycle
// (Victim, Remove, OnInsert) per missing read once the policy is full.
func replayPolicy(stream []read, slots int, factory replacement.Factory) (accessNS, victimNS float64) {
	var accesses, victims []float64
	for r := 0; r < reps; r++ {
		p := factory()
		resident := map[oodb.Item]bool{}
		var hits, misses []read
		for lo := 0; lo < len(stream); lo += batch {
			hits, misses = hits[:0], misses[:0]
			pending := map[oodb.Item]bool{}
			for _, rd := range stream[lo:min(lo+batch, len(stream))] {
				switch {
				case resident[rd.it]:
					hits = append(hits, rd)
				case !pending[rd.it]:
					pending[rd.it] = true
					misses = append(misses, rd)
				}
			}
			if len(hits) > 0 {
				t := time.Now()
				for _, rd := range hits {
					p.OnAccess(rd.it, rd.now)
				}
				accesses = append(accesses, float64(time.Since(t))/float64(len(hits)))
			}
			full := p.Len() >= slots
			evicted := make([]oodb.Item, 0, len(misses))
			t := time.Now()
			for _, rd := range misses {
				if p.Len() >= slots {
					v, _ := p.Victim(rd.now)
					p.Remove(v)
					evicted = append(evicted, v)
				}
				p.OnInsert(rd.it, rd.now)
			}
			if full && len(misses) > 0 {
				victims = append(victims, float64(time.Since(t))/float64(len(misses)))
			}
			for _, rd := range misses {
				resident[rd.it] = true
			}
			for _, v := range evicted {
				delete(resident, v)
			}
		}
	}
	return median(accesses), median(victims)
}

// replayBuffer runs the client memory buffer: per batch, time every Get,
// then time the Puts of the batch's misses.
func replayBuffer(stream []read, entries int) (getNS, putNS float64) {
	var gets, puts []float64
	for r := 0; r < reps; r++ {
		l := buffer.NewLRU[oodb.Item, core.Entry](entries)
		var need []read
		for lo := 0; lo < len(stream); lo += batch {
			b := stream[lo:min(lo+batch, len(stream))]
			need = need[:0]
			t := time.Now()
			for _, rd := range b {
				if _, ok := l.Get(rd.it); !ok {
					need = append(need, rd)
				}
			}
			gets = append(gets, float64(time.Since(t))/float64(len(b)))
			if len(need) == 0 {
				continue
			}
			t = time.Now()
			for _, rd := range need {
				l.Put(rd.it, core.Entry{ExpiresAt: rd.now + 600, FetchedAt: rd.now})
			}
			puts = append(puts, float64(time.Since(t))/float64(len(need)))
		}
	}
	return median(gets), median(puts)
}

// replayCoherence runs the server's lease estimator and the error oracle:
// ObserveWrite over the write stream, ExpiresAt and IsError over the reads.
func replayCoherence(stream, writes []read, cfg experiment.Config) (observeNS, expiresNS, oracleNS float64) {
	var observes, expires, oracles []float64
	for r := 0; r < reps; r++ {
		db := experiment.NewDatabase(cfg)
		est := coherence.NewRefreshEstimator(cfg.Beta)
		oracle := coherence.NewOracle(db)
		for lo := 0; lo < len(writes); lo += batch {
			b := writes[lo:min(lo+batch, len(writes))]
			for _, w := range b {
				db.Write(w.it.OID, w.it.Attr)
			}
			t := time.Now()
			for _, w := range b {
				est.ObserveWrite(w.it, w.now)
			}
			observes = append(observes, float64(time.Since(t))/float64(len(b)))
		}
		for lo := 0; lo < len(stream); lo += batch {
			b := stream[lo:min(lo+batch, len(stream))]
			t := time.Now()
			for _, rd := range b {
				sink += est.ExpiresAt(rd.it, rd.now)
			}
			expires = append(expires, float64(time.Since(t))/float64(len(b)))
			t = time.Now()
			for _, rd := range b {
				if oracle.IsError(rd.it, 1) {
					sink++
				}
			}
			oracles = append(oracles, float64(time.Since(t))/float64(len(b)))
		}
	}
	return median(observes), median(expires), median(oracles)
}

// sink keeps the compiler from dropping calls whose results go unused.
var sink float64

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
