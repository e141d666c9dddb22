package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The golden table hashes are the behaviour contract of the simulator:
// every table `mcsim exp 1..11 -quick` emits, plus a set of targeted
// single-run scenarios, is rendered and SHA-256 hashed, and the hashes are
// pinned in testdata/tables.golden.json. A refactor may not move a hash; a
// deliberate model change regenerates the file with
//
//	go test ./internal/experiment -run TestGoldenTables -update
//
// and justifies the moved hashes in CHANGES.md. `go test ./...` checks the
// cheap entries only; `make golden` (-golden.all) checks every entry; a
// -race build skips the test.

var (
	update    = flag.Bool("update", false, "rewrite testdata/tables.golden.json from the current code")
	goldenAll = flag.Bool("golden.all", false, "check every golden entry, including the slow quick grids")
)

const goldenPath = "testdata/tables.golden.json"

// goldenTable is one pinned table: its title and the SHA-256 of its
// rendered text.
type goldenTable struct {
	Title  string `json:"title"`
	SHA256 string `json:"sha256"`
}

// goldenCase is one pinned source of tables.
type goldenCase struct {
	name  string
	cheap bool // checked by plain `go test`; the rest need -golden.all
	run   func(t *testing.T) []*Table
}

// quickBase is the base config `mcsim exp N -quick` builds for the paper's
// Experiments #1–#7: default seed, one simulated day.
func quickBase() Config { return Config{Seed: 1, Days: 1} }

// fleetQuickBase is the base for Experiments #8–#11, whose quick grids
// carry their own horizons.
func fleetQuickBase() Config { return Config{Seed: 1} }

func reportTables(reps ...*Report) []*Table {
	var out []*Table
	for _, r := range reps {
		out = append(out, r.Tables...)
	}
	return out
}

// goldenScenarios are the targeted single runs: the feature matrix every
// client wait point appears in (local holds, uplink, server staging,
// downlink with shedding, retry timeouts and backoff, broadcast slots,
// invalidation reports, fleet backbone relays, cooperative lookups), plus
// a fleet combining faults, bursts, irb and cooperation, and HC under
// bursty arrivals.
func goldenScenarios() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"fleet-faults-bursts-irb-coop", Config{
			Seed: 21, Days: 0.05, NumClients: 16, Cells: 4,
			Granularity: core.HybridCaching, UpdateProb: 0.3,
			Coherence: coherence.IRBroadcastStrategy, CoopPeers: 3,
			LossRate: 0.1, CorruptRate: 0.02,
			BurstFraction: 0.1, MeanBadSeconds: 30,
		}},
		{"hc-bursty", Config{
			Seed: 22, Days: 0.5, NumClients: 10,
			Granularity: core.HybridCaching, UpdateProb: 0.1,
			Arrival: BurstyArrival, QueryKind: workload.Associative,
		}},
		{"defaults-oc", Config{
			Seed: 1, Days: 0.05, NumClients: 8,
			Granularity: core.ObjectCaching, UpdateProb: 0.2,
		}},
		{"nc-no-store", Config{
			Seed: 2, Days: 0.05, NumClients: 6,
			Granularity: core.NoCache, UpdateProb: 0.5,
		}},
		{"hc-prefetch-shed", Config{
			Seed: 3, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.2,
			ShedThreshold: 0.5, Arrival: BurstyArrival,
		}},
		{"faults-retry", Config{
			Seed: 4, Days: 0.05, NumClients: 8,
			Granularity: core.AttributeCaching, UpdateProb: 0.2,
			LossRate: 0.15, CorruptRate: 0.05,
			BurstFraction: 0.1, MeanBadSeconds: 30,
		}},
		{"invalidation-reports", Config{
			Seed: 5, Days: 0.05, NumClients: 6,
			Granularity: core.ObjectCaching, UpdateProb: 0.5,
			Coherence:           coherence.InvalidationReportStrategy,
			DisconnectedClients: 2, DisconnectHours: 6,
		}},
		{"broadcast-air", Config{
			Seed: 6, Days: 0.05, NumClients: 8,
			Granularity: core.AttributeCaching, UpdateProb: 0.2,
			SharedHotObjects: 100, SharedHotProb: 0.7, BroadcastAttrs: 4,
		}},
		{"fixed-lease-disconnect", Config{
			Seed: 7, Days: 0.05, NumClients: 8,
			Granularity: core.ObjectCaching, UpdateProb: 0.2,
			Coherence:           coherence.FixedLeaseStrategy,
			FixedLease:          120,
			DisconnectedClients: 3, DisconnectHours: 8,
		}},
		{"fleet-relay", Config{
			Seed: 8, Days: 0.05, NumClients: 12, Cells: 4,
			Granularity: core.HybridCaching, UpdateProb: 0.2,
			RelayObjects: 50,
		}},
		{"fleet-faults", Config{
			Seed: 9, Days: 0.05, NumClients: 8, Cells: 2,
			Granularity: core.ObjectCaching, UpdateProb: 0.2,
			LossRate: 0.1,
		}},
		{"irb-coherence", Config{
			Seed: 10, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.5,
			Coherence: coherence.IRBroadcastStrategy,
			LossRate:  0.2, CorruptRate: 0.05,
		}},
		{"irb-missed-bursts", Config{
			Seed: 9, Days: 0.2, NumClients: 6,
			Granularity: core.ObjectCaching, UpdateProb: 0.5,
			Coherence:     coherence.IRBroadcastStrategy,
			BurstFraction: 0.3, MeanBadSeconds: 400,
		}},
		{"irb-fleet-disconnect", Config{
			Seed: 11, Days: 0.05, NumClients: 12, Cells: 3,
			Granularity: core.ObjectCaching, UpdateProb: 0.5,
			Coherence:           coherence.IRBroadcastStrategy,
			DisconnectedClients: 4, DisconnectHours: 8,
		}},
		{"cooperative", Config{
			Seed: 12, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.2,
			CoopPeers: 3,
		}},
		{"cooperative-faults", Config{
			Seed: 13, Days: 0.05, NumClients: 10, Cells: 2,
			Granularity: core.AttributeCaching, UpdateProb: 0.2,
			CoopPeers: 4, LossRate: 0.15, CorruptRate: 0.05,
		}},
		{"irb-coop-combined", Config{
			Seed: 14, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.3,
			Coherence: coherence.IRBroadcastStrategy, CoopPeers: 3,
			LossRate: 0.1,
		}},
	}
}

// scenarioTables runs cfg with a CSV tracer and renders two tables: the
// whole Result (config scrubbed) and the per-query trace.
func scenarioTables(cfg Config) []*Table {
	var buf bytes.Buffer
	tr := trace.NewCSV(&buf)
	cfg.Tracer = tr
	res := RunFleet(cfg)
	tr.Flush()
	if res.QueriesIssued == 0 {
		panic("golden scenario issued no queries")
	}
	res.Config = Config{}
	resTbl := NewTable("result", "value")
	resTbl.Add(fmt.Sprintf("%+v", res))
	traceTbl := NewTable("trace.csv", "csv")
	traceTbl.Add(buf.String())
	return []*Table{resTbl, traceTbl}
}

func goldenCases() []goldenCase {
	cases := []goldenCase{
		{"exp1", false, func(*testing.T) []*Table { return reportTables(Exp1(quickBase())) }},
		{"exp2", true, func(*testing.T) []*Table { return reportTables(Exp2(quickBase())) }},
		{"exp3", false, func(*testing.T) []*Table { return reportTables(Exp3(quickBase())) }},
		{"exp4", false, func(*testing.T) []*Table {
			return reportTables(Exp4(quickBase()), Exp4Cyclic(quickBase()))
		}},
		{"exp5", false, func(*testing.T) []*Table { return reportTables(Exp5(quickBase())) }},
		{"exp6", false, func(*testing.T) []*Table { return reportTables(Exp6Quick(quickBase())) }},
		{"exp7", true, func(*testing.T) []*Table { return reportTables(Exp7Quick(quickBase())) }},
		{"exp8", false, func(*testing.T) []*Table { return reportTables(Exp8Quick(fleetQuickBase())) }},
		{"exp9", true, func(*testing.T) []*Table { return reportTables(Exp9Quick(fleetQuickBase())) }},
		{"exp10", true, func(*testing.T) []*Table { return reportTables(Exp10Quick(fleetQuickBase())) }},
		{"exp11", true, func(*testing.T) []*Table { return reportTables(Exp11Quick(fleetQuickBase())) }},
		// A persistent-tier sweep: the tier gets/puts columns are
		// deterministic workload facts; the measured latencies ride in
		// Report.Notes, outside the tables.
		{"storage-tier", true, func(t *testing.T) []*Table {
			base := Config{Seed: 1, Days: 0.05, StorageDSN: "file:" + t.TempDir() + "?sync=none"}
			return reportTables(exp11(base, []int{2000}, []float64{0.05, 0.25}, exp11Schemes(), true))
		}},
	}
	for _, sc := range goldenScenarios() {
		cfg := sc.cfg
		cases = append(cases, goldenCase{"scenario/" + sc.name, true,
			func(*testing.T) []*Table { return scenarioTables(cfg) }})
	}
	return cases
}

func hashTables(tables []*Table) []goldenTable {
	out := make([]goldenTable, len(tables))
	for i, tbl := range tables {
		out[i] = goldenTable{Title: tbl.Title, SHA256: fmt.Sprintf("%x", sha256.Sum256([]byte(tbl.String())))}
	}
	return out
}

// TestGoldenTables checks every pinned table hash (the cheap subset unless
// -golden.all) and rewrites the whole file under -update.
func TestGoldenTables(t *testing.T) {
	if raceEnabled {
		// The hashes pin outputs, not interleavings: the race detector
		// adds nothing here but slows the grids ~8x. Plain go test and
		// make golden check them.
		t.Skip("golden hashes are checked without -race")
	}
	want := map[string][]goldenTable{}
	if !*update {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	}
	got := map[string][]goldenTable{}
	known := map[string]bool{}
	for _, gc := range goldenCases() {
		known[gc.name] = true
		if !gc.cheap && !*goldenAll && !*update {
			continue
		}
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			hashes := hashTables(gc.run(t))
			got[gc.name] = hashes
			if *update {
				return
			}
			pinned, ok := want[gc.name]
			if !ok {
				t.Fatalf("no pinned hashes for %s (regenerate with -update)", gc.name)
			}
			diffGolden(t, pinned, hashes)
		})
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var stale []string
	for name := range want {
		if !known[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("golden file pins entries no case produces: %v (regenerate with -update)", stale)
	}
}

// diffGolden reports every table, by title, whose hash moved, that is
// newly produced, or that is pinned but no longer produced; then the
// order.
func diffGolden(t *testing.T, want, got []goldenTable) {
	t.Helper()
	pinned := map[string]string{}
	for _, w := range want {
		pinned[w.Title] = w.SHA256
	}
	produced := map[string]bool{}
	for _, g := range got {
		produced[g.Title] = true
		switch h, ok := pinned[g.Title]; {
		case !ok:
			t.Errorf("table %q produced but not pinned", g.Title)
		case h != g.SHA256:
			t.Errorf("table %q moved: pinned %s, produced %s", g.Title, h[:16], g.SHA256[:16])
		}
	}
	for _, w := range want {
		if !produced[w.Title] {
			t.Errorf("table %q pinned but no longer produced", w.Title)
		}
	}
	if !t.Failed() && !reflect.DeepEqual(want, got) {
		t.Errorf("tables produced in a different order than pinned")
	}
}
