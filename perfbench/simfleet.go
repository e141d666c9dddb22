package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
)

// The sim-fleet job: Table 1 defaults (HC, ewma-0.5, AQ, skewed heat,
// Poisson arrivals, U = 0.1) at 10 clients per cell, 32 cells on the
// Runner pool, on the default engine. At 10 clients per cell the downlink
// runs near the paper's utilization; the horizon keeps one job under a
// second so a pass holds a dozen of them.
const (
	simCells          = 32
	simClientsPerCell = 10
	simHorizonDays    = 0.025
	simUpdateProb     = 0.1
)

func simOptions(seed uint64) []experiment.Option {
	return []experiment.Option{
		experiment.WithSeed(seed),
		experiment.WithFleet(simCells*simClientsPerCell, simCells),
		experiment.WithHorizonDays(simHorizonDays),
		experiment.WithGranularity(core.HybridCaching),
		experiment.WithPolicy("ewma-0.5"),
		experiment.WithUpdateProb(simUpdateProb),
	}
}

// buildSim validates a scenario and builds the deterministic inputs every
// simulated client gets: the database and each client's generator — the
// construction Run repeats per cell.
func buildSim(opts ...experiment.Option) (*experiment.Scenario, error) {
	sc, err := experiment.New(opts...)
	if err != nil {
		return nil, err
	}
	cfg := sc.Config()
	db := experiment.NewDatabase(cfg)
	for i := 0; i < cfg.NumClients; i++ {
		experiment.NewClientWorkload(cfg, db, i)
	}
	return sc, nil
}

// runSimFleet runs the fleet job in a closed loop until the pass's seconds
// are spent. Each job is one request: set up, run, restart from the
// resolved configuration (the simulator's manifest replay).
func runSimFleet(o options, traced bool) (*pass, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	pinned, isPinned := pins[strconv.FormatUint(o.seed, 10)]
	p := &pass{}
	var events, queries, diskReads, backbone uint64
	var allocBytes, allocs uint64
	want := ""
	start := time.Now()
	for len(p.latency) < 2 || time.Since(start).Seconds() < o.seconds {
		runtime.GC() // set-up runs in a fresh process, with no garbage to collect
		t0 := time.Now()
		sc, err := buildSim(simOptions(o.seed)...)
		if err != nil {
			return nil, fmt.Errorf("sim-fleet scenario: %w", err)
		}
		p.setup = append(p.setup, seconds(time.Since(t0)))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t1 := time.Now()
		res := sc.Run()
		took := time.Since(t1)
		runtime.ReadMemStats(&after)

		p.attempted++
		p.latency = append(p.latency, float64(took)/float64(time.Millisecond))
		p.round(float64(res.Events), float64(res.QueriesIssued), seconds(took))
		events += res.Events
		queries += res.QueriesIssued
		diskReads = res.Server.DiskReads
		backbone = res.BackboneMessages
		allocBytes += after.TotalAlloc - before.TotalAlloc
		allocs += after.Mallocs - before.Mallocs

		got := simDigest(res)
		switch {
		case res.Events == 0 || res.QueriesIssued == 0:
			p.fail("job %d simulated nothing", p.attempted)
		case isPinned && got != pinned:
			p.fail("job %d digest %s, pinned %s for seed %d", p.attempted, got, pinned, o.seed)
		case want != "" && got != want:
			p.fail("job %d digest %s differs from job 1's %s", p.attempted, got, want)
		}
		if want == "" {
			want = got
		}

		runtime.GC()
		t2 := time.Now()
		if _, err := buildSim(experiment.WithConfig(sc.Config())); err != nil {
			return nil, fmt.Errorf("sim-fleet replay from resolved config: %w", err)
		}
		p.restart = append(p.restart, seconds(time.Since(t2)))
	}

	p.set("alloc_bytes_per_event", "B", float64(allocBytes)/float64(events))
	p.set("allocs_per_event", "count", float64(allocs)/float64(events))
	p.set("sim.events_per_query", "count", float64(events)/float64(queries))
	p.set("server.disk_reads", "count", float64(diskReads))
	p.set("federation.backbone_msgs", "count", float64(backbone))
	pin := "unpinned seed: jobs checked against each other"
	if isPinned {
		pin = "pinned"
	}
	p.note("sim-fleet jobs=%d events_per_s=%.6g 1/s events_per_job=%d digest=%s (%s)",
		len(p.latency), median(p.opsRate), events/uint64(len(p.latency)), want, pin)
	return p, nil
}

// simDigest hashes the deterministic part of a Result: the paper's three
// ratios, the query and event counts, the server's counters and the
// backbone traffic. Floats hash by their bits, so any change shows.
func simDigest(r experiment.Result) string {
	f := func(x float64) string { return strconv.FormatUint(math.Float64bits(x), 16) }
	s := r.Server
	fields := []string{
		f(r.HitRatio), f(r.MeanResponse), f(r.ErrorRate),
		strconv.FormatUint(r.QueriesIssued, 10), strconv.FormatUint(r.Events, 10),
		strconv.FormatUint(s.QueriesServed, 10), strconv.FormatUint(s.DiskReads, 10),
		strconv.FormatUint(s.BufferHits, 10), strconv.FormatUint(s.UpdatesApplied, 10),
		f(s.BufferHitRatio), f(s.DiskUtilization),
		strconv.FormatUint(s.StorageGets, 10), strconv.FormatUint(s.StoragePuts, 10),
		strconv.FormatUint(s.StorageErrors, 10),
		strconv.FormatUint(r.BackboneBytes, 10),
	}
	sum := sha256.Sum256([]byte(strings.Join(fields, " ")))
	return fmt.Sprintf("%x", sum[:8])
}

// simfleet_digests.json holds the digest of the sim-fleet job for each
// shipped seed; regenerate it with -pin after a deliberate model change.
//
//go:embed simfleet_digests.json
var simDigestsJSON []byte

// loadPins returns the pinned digests by seed.
func loadPins() (map[string]string, error) {
	var d struct {
		HorizonDays float64           `json:"horizon_days"`
		Digests     map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(simDigestsJSON, &d); err != nil {
		return nil, fmt.Errorf("simfleet_digests.json: %w", err)
	}
	if d.HorizonDays != simHorizonDays {
		return nil, fmt.Errorf("simfleet_digests.json was pinned for %g-day jobs, the job is %g days: re-pin",
			d.HorizonDays, simHorizonDays)
	}
	return d.Digests, nil
}

// printPins writes simfleet_digests.json for seeds lo..hi.
func printPins(w io.Writer, spec string) error {
	loS, hiS, _ := strings.Cut(spec, "-")
	lo, err1 := strconv.ParseUint(loS, 10, 64)
	hi, err2 := strconv.ParseUint(hiS, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("-pin %q: want lo-hi", spec)
	}
	out := map[string]any{"horizon_days": simHorizonDays}
	digests := map[string]string{}
	for seed := lo; seed <= hi; seed++ {
		sc, err := experiment.New(simOptions(seed)...)
		if err != nil {
			return err
		}
		digests[strconv.FormatUint(seed, 10)] = simDigest(sc.Run())
	}
	out["digests"] = digests
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
