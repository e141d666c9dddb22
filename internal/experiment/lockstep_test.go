package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// runLockstep executes cfg three times and fails on any divergence: once
// untraced, so a fleet's cells run on the worker pool, and twice with a CSV
// tracer attached, which keeps the cells serial in cell order. The Results
// (Config scrubbed) must be deep-equal across all three runs — neither cell
// scheduling nor tracing may perturb the simulation — and the two trace
// CSVs byte-identical.
func runLockstep(t *testing.T, cfg Config) {
	t.Helper()
	traced := func() (Result, string) {
		var buf bytes.Buffer
		tr := trace.NewCSV(&buf)
		c := cfg
		c.Tracer = tr
		res := RunFleet(c)
		tr.Flush()
		res.Config = Config{}
		return res, buf.String()
	}
	pooled := RunFleet(cfg)
	pooled.Config = Config{}
	first, firstCSV := traced()
	second, secondCSV := traced()

	if firstCSV != secondCSV {
		fl, sl := bytes.Split([]byte(firstCSV), []byte("\n")), bytes.Split([]byte(secondCSV), []byte("\n"))
		for i := 0; i < len(fl) && i < len(sl); i++ {
			if !bytes.Equal(fl[i], sl[i]) {
				t.Fatalf("trace CSV differs between identical runs at line %d:\nfirst:  %s\nsecond: %s", i, fl[i], sl[i])
			}
		}
		t.Fatalf("trace CSV differs between identical runs (%d vs %d bytes)", len(firstCSV), len(secondCSV))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("results differ between identical traced runs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if !reflect.DeepEqual(pooled, first) {
		t.Fatalf("results differ between pooled untraced and serial traced runs:\npooled: %+v\ntraced: %+v", pooled, first)
	}
	if first.QueriesIssued == 0 {
		t.Fatal("lockstep run issued no queries — the scenario is vacuous")
	}
}

// FuzzEngineLockstep lets the fuzzer pick the seed and scenario shape; any
// divergence between the lockstep runs of runLockstep is a crash worth
// keeping.
func FuzzEngineLockstep(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0), false, false)
	f.Add(uint64(42), uint8(3), uint8(1), true, false)
	f.Add(uint64(7), uint8(1), uint8(2), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, gran, disrupt uint8, shed, fleet bool) {
		cfg := Config{
			Seed: seed, Days: 0.02, NumClients: 4,
			Granularity: core.Granularity(gran % 4),
			UpdateProb:  0.2,
		}
		if shed {
			cfg.ShedThreshold = 0.5
		}
		switch disrupt % 3 {
		case 1:
			cfg.LossRate = 0.2
			cfg.CorruptRate = 0.05
		case 2:
			cfg.DisconnectedClients = 2
			cfg.DisconnectHours = 6
		}
		if fleet {
			cfg.Cells = 2
		}
		runLockstep(t, cfg)
	})
}
