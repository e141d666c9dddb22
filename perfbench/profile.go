package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// startProfile starts the CPU profile of the traced pass.
func startProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// bucket is one row of the "where the time goes" table.
type bucket struct {
	name    string
	seconds float64
	share   float64
}

// Package buckets every profile reports, so a layer that does no work on a
// workload reads 0 rather than going missing.
var cpuBuckets = []string{
	"cpu.sim", "cpu.client", "cpu.core", "cpu.replacement", "cpu.buffer", "cpu.coherence",
	"cpu.server", "cpu.network", "cpu.federation", "cpu.workload", "cpu.experiment",
	"cpu.metrics", "cpu.oodb", "cpu.rng", "cpu.stats", "cpu.serve", "cpu.storage",
	"cpu.http", "cpu.other", "cpu.rt.map", "cpu.rt.sched", "cpu.rt.gc",
}

// profileShares reads the profile through `go tool pprof -traces` and
// charges each sample twice: to the innermost repro/internal/<pkg> frame
// (net/http, net and encoding/json frames count as cpu.http; a stack with
// neither is cpu.other), and, when the innermost runtime frames are map
// access or hashing, goroutine scheduling, or allocation and GC, to
// cpu.rt.map, cpu.rt.sched or cpu.rt.gc. Package shares sum to 1; the
// cpu.rt.* shares cut across them.
func profileShares(path string) (map[string]float64, []bucket, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return attribute(&out)
}

func attribute(r io.Reader) (map[string]float64, []bucket, error) {
	secs := map[string]float64{}
	total := 0.0
	var frames []string
	var value float64
	flush := func() {
		if len(frames) == 0 {
			return
		}
		secs[packageBucket(frames)] += value
		if rt := runtimeBucket(frames); rt != "" {
			secs[rt] += value
		}
		total += value
		frames = frames[:0]
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	inSamples := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, nil, fmt.Errorf("pprof -traces: unexpected sample line %q", line)
			}
			value = d.Seconds()
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if total == 0 {
		return nil, nil, fmt.Errorf("the CPU profile holds no samples")
	}
	shares := map[string]float64{}
	var table []bucket
	for _, name := range cpuBuckets {
		shares[name] = secs[name] / total
		if secs[name] > 0 {
			table = append(table, bucket{name, secs[name], secs[name] / total})
		}
	}
	sort.SliceStable(table, func(i, j int) bool {
		ri, rj := strings.HasPrefix(table[i].name, "cpu.rt."), strings.HasPrefix(table[j].name, "cpu.rt.")
		if ri != rj {
			return rj
		}
		return table[i].seconds > table[j].seconds
	})
	return shares, table, nil
}

// packageBucket charges a stack (innermost frame first) to its innermost
// program package, or to cpu.http for the HTTP/JSON machinery.
func packageBucket(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			name := "cpu." + pkg
			for _, b := range cpuBuckets {
				if b == name {
					return name
				}
			}
			return "cpu.other"
		}
		for _, p := range []string{"net/http.", "net/http/", "net.", "encoding/json.", "net/textproto."} {
			if strings.HasPrefix(f, p) {
				return "cpu.http"
			}
		}
	}
	return "cpu.other"
}

// runtimeBucket classifies the innermost run of runtime frames.
func runtimeBucket(frames []string) string {
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") &&
			!strings.HasPrefix(f, "runtime/internal/") {
			return ""
		}
		fn := f[strings.LastIndex(f, ".")+1:]
		switch {
		case strings.HasPrefix(f, "internal/runtime/maps."), strings.HasPrefix(f, "runtime.map"),
			strings.Contains(fn, "hash"), strings.HasPrefix(fn, "memequal"), fn == "efaceeq", fn == "ifaceeq":
			return "cpu.rt.map"
		case strings.HasPrefix(fn, "gc"), strings.HasPrefix(fn, "mallocgc"), strings.Contains(fn, "sweep"),
			strings.HasPrefix(fn, "scanobject"), strings.HasPrefix(fn, "greyobject"), strings.HasPrefix(fn, "markroot"),
			strings.HasPrefix(fn, "findObject"), strings.HasPrefix(fn, "wbBuf"), strings.HasPrefix(fn, "bulkBarrier"),
			strings.HasPrefix(fn, "scanblock"), strings.HasPrefix(fn, "scanstack"), fn == "newobject", fn == "growslice",
			fn == "makeslice":
			return "cpu.rt.gc"
		case fn == "schedule", fn == "findRunnable", fn == "park_m", fn == "gopark", fn == "goready", fn == "ready",
			strings.HasPrefix(fn, "chansend"), strings.HasPrefix(fn, "chanrecv"), fn == "selectgo", fn == "mcall",
			fn == "futex", fn == "futexsleep", fn == "futexwakeup", fn == "notesleep", fn == "notewakeup",
			fn == "stealWork", fn == "runqsteal", fn == "runqgrab", fn == "lock2", fn == "unlock2", fn == "usleep",
			fn == "osyield", fn == "goexit0", fn == "newproc", fn == "newproc1", fn == "wakep", fn == "startm",
			fn == "stopm", fn == "casgstatus", strings.HasPrefix(fn, "semacquire"), strings.HasPrefix(fn, "semrelease"),
			fn == "gosched_m", fn == "goschedImpl", fn == "execute", fn == "gogo", fn == "netpoll":
			return "cpu.rt.sched"
		}
	}
	return ""
}

// runLayers runs the layer replay binary built beside this one.
func runLayers(o options) (map[string]float64, error) {
	cmd := exec.Command(filepath.Join(o.out, "layers"), "-seed", fmt.Sprint(o.seed), "-workload", o.workload)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("layer replay: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	var m map[string]float64
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("layer replay output: %w", err)
	}
	return m, nil
}

// printWhereTimeGoes prints the per-package CPU table with the layer
// replay's ns per call beside it, as markdown.
func printWhereTimeGoes(w io.Writer, workload string, table []bucket, layers map[string]float64) {
	fmt.Fprintf(w, "\n### Where the time goes: %s\n\n", workload)
	fmt.Fprintln(w, "| bucket | CPU s | share |")
	fmt.Fprintln(w, "|---|---:|---:|")
	for _, b := range table {
		fmt.Fprintf(w, "| %s | %.3f | %.1f%% |\n", b.name, b.seconds, 100*b.share)
	}
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\n| layer call (replay of one client's stream) | ns/call |")
	fmt.Fprintln(w, "|---|---:|")
	for _, name := range names {
		fmt.Fprintf(w, "| %s | %.1f |\n", name, layers[name])
	}
	fmt.Fprintln(w)
}
