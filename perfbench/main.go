// Command perfbench is the repository benchmark. It drives three
// workloads from one process — the fleet simulator (sim-fleet), the live
// service on the memory backend (live-read) and on the durable file
// backend (live-write) — checks their outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the gated end-to-end set; with -trace 1
// the process runs the workload untraced, then again under a CPU profile,
// then the layer passes, and the metrics are the per-layer set plus the
// tracing overhead. See README.md in this directory.
//
// The end-to-end runner reaches the program only through its front doors:
// experiment.New options, experiment.NewDatabase/NewClientWorkload,
// serve.Open/NewHandler/NewService, the wire types and Stats. Direct calls
// into core, replacement, buffer and coherence live in ./layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is what one measured pass of a workload yields. A workload runs in
// rounds: each round sets up, runs a fixed amount of load, and restarts.
type pass struct {
	setup   []float64 // seconds, one per round
	restart []float64 // seconds, one per round
	latency []float64 // milliseconds, one per request

	// opsRate and queryRate are each round's operations (simulated events,
	// HTTP calls) and mobile queries per second under load. Every round
	// does the same amount of work, and the gated rates are their medians,
	// so a burst of host contention that slows a few rounds does not move
	// them.
	opsRate, queryRate []float64

	attempted, failed int64
	problems          []string // the first few failure descriptions

	// layer holds per-layer values gathered during the pass, and text the
	// workload-specific report lines.
	layer map[string]metric
	text  []string
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// round records one round's throughput.
func (p *pass) round(ops, queries, busySeconds float64) {
	p.opsRate = append(p.opsRate, ops/busySeconds)
	p.queryRate = append(p.queryRate, queries/busySeconds)
}

func (p *pass) set(name, unit string, v float64) {
	if p.layer == nil {
		p.layer = map[string]metric{}
	}
	p.layer[name] = metric{Value: v, Unit: unit}
}

func (p *pass) note(format string, args ...any) {
	p.text = append(p.text, fmt.Sprintf(format, args...))
}

// endToEnd is the gated set. Every workload reports every one of them;
// README.md gives each its meaning per workload.
func endToEnd(p *pass) map[string]metric {
	return map[string]metric{
		"setup_s":       {median(p.setup), "s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"ops_per_s":     {median(p.opsRate), "1/s"},
		"queries_per_s": {median(p.queryRate), "1/s"},
	}
}

var endToEndNames = []string{"setup_s", "peak_rss_mb", "ops_per_s", "queries_per_s"}

// ungated is what every pass measures besides the gated set: request
// latency and restart time. They are reported per layer; README.md says
// why they are not gated.
func ungated(p *pass) map[string]metric {
	return map[string]metric{
		"latency_p50_ms": {quantile(p.latency, 0.50), "ms"},
		"latency_p90_ms": {quantile(p.latency, 0.90), "ms"},
		"latency_p99_ms": {quantile(p.latency, 0.99), "ms"},
		"recover_s":      {interquartileMean(p.restart), "s"},
	}
}

// perLayer is the traced run's set, in BENCHMARK.json order.
var perLayer = func() []struct{ name, unit string } {
	var l []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			l = append(l, struct{ name, unit string }{n, unit})
		}
	}
	add("share", cpuBuckets...)
	add("ns", "workload.next_query_ns", "core.lookup_ns", "core.insert_ns", "replacement.access_ns",
		"replacement.victim_ns", "buffer.get_ns", "buffer.put_ns", "coherence.observe_ns",
		"coherence.expires_ns", "coherence.oracle_ns")
	add("B", "alloc_bytes_per_event")
	add("count", "allocs_per_event", "sim.events_per_query", "server.disk_reads", "federation.backbone_msgs")
	add("ms", "read_p50_ms", "read_p99_ms", "fetch_p50_ms", "fetch_p99_ms", "write_p50_ms", "write_p99_ms")
	add("us", "serve.read_us", "serve.fetch_us", "serve.write_us", "http.overhead_us")
	add("count", "http.calls_per_query")
	add("share", "serve.hit_ratio", "serve.stale_ratio")
	add("count", "serve.evictions_per_read", "storage.puts_per_write", "storage.puts_per_fetch", "storage.syncs_per_op")
	add("ms", "storage.put_p50_ms", "storage.put_p99_ms")
	add("B/B", "storage.disk_per_live_byte")
	add("count", "storage.compactions", "storage.recovered_records")
	add("ms", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms")
	add("s", "recover_s")
	add("1/s", "durable.ops_per_s")
	add("ms", "durable.latency_p50_ms", "durable.latency_p99_ms", "durable.write_p50_ms", "durable.write_p99_ms",
		"durable.fetch_p50_ms", "durable.fetch_p99_ms")
	add("s", "durable.recover_s")
	for _, n := range endToEndNames {
		add("share", "overhead."+n)
	}
	return l
}()

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	out      string // scratch directory inside the checkout
}

func main() {
	var o options
	var trace int
	var pin string
	flag.StringVar(&o.workload, "workload", "", "sim-fleet | live-read | live-write")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for stores and profiles")
	flag.StringVar(&pin, "pin", "", "print sim-fleet digests for seeds lo-hi (e.g. 0-99) and exit")
	flag.Parse()

	if pin != "" {
		if err := printPins(os.Stdout, pin); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q (want sim-fleet, live-read or live-write)", o.workload))
	}
	if o.seconds <= 0 || trace < 0 || trace > 1 {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}

	env := environment(o.out)
	for _, line := range env {
		fmt.Println("env", line)
	}
	var s summary
	var err error
	if trace == 0 {
		s, err = untracedRun(o, w)
	} else {
		s, err = tracedRun(o, w)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(s)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !s.Correct {
		os.Exit(1)
	}
}

// bench is one benchmark workload. run is its pass; traced asks the
// pass for the per-layer values that need instrumentation inside the run.
// extra, if set, is a further pass only the traced run makes, after the
// CPU profile stops; its per-layer values join the traced run's.
type bench struct {
	run   func(o options, traced bool) (*pass, error)
	extra func(o options) (*pass, error)
}

var workloads = map[string]bench{
	"sim-fleet": {run: runSimFleet},
	"live-read": {
		run:   func(o options, traced bool) (*pass, error) { return runLive(o, liveRead, traced) },
		extra: durablePass,
	},
	"live-write": {run: func(o options, traced bool) (*pass, error) { return runLive(o, liveWrite, traced) }},
}

func untracedRun(o options, w bench) (summary, error) {
	p, err := w.run(o, false)
	if err != nil {
		return summary{}, err
	}
	report(os.Stdout, "untraced", p)
	m := endToEnd(p)
	printMetrics(os.Stdout, "e2e", m)
	return summary{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// tracedRun measures the workload untraced, then under the CPU profile,
// then runs the layer passes; it reports the per-layer set and the
// traced-minus-untraced overhead on each end-to-end metric.
func tracedRun(o options, w bench) (summary, error) {
	// Both passes get half the time, so the traced run costs about as much
	// as an untraced one plus the layer passes.
	o.seconds /= 2
	plain, err := w.run(o, false)
	if err != nil {
		return summary{}, err
	}
	report(os.Stdout, "untraced", plain)
	base := endToEnd(plain)

	profPath := filepath.Join(o.out, fmt.Sprintf("cpu-%s-%d.pprof", o.workload, os.Getpid()))
	stop, err := startProfile(profPath)
	if err != nil {
		return summary{}, err
	}
	traced, err := w.run(o, true)
	stop()
	if err != nil {
		return summary{}, err
	}
	report(os.Stdout, "traced", traced)
	fmt.Println("profile", profPath)
	withTrace := endToEnd(traced)

	// Values both passes measure come from the untraced one.
	m := map[string]metric{}
	for name, v := range traced.layer {
		m[name] = v
	}
	extra := &pass{}
	if w.extra != nil {
		if extra, err = w.extra(o); err != nil {
			return summary{}, err
		}
		report(os.Stdout, "extra", extra)
		for name, v := range extra.layer {
			m[name] = v
		}
	}
	for name, v := range plain.layer {
		m[name] = v
	}
	for name, v := range ungated(plain) {
		m[name] = v
	}
	// Positive overhead means tracing made the metric worse.
	for _, name := range endToEndNames {
		ratio := withTrace[name].Value / base[name].Value
		if strings.HasSuffix(name, "_per_s") {
			ratio = 1 / ratio
		}
		m["overhead."+name] = metric{ratio - 1, "share"}
	}

	shares, table, err := profileShares(profPath)
	if err != nil {
		return summary{}, err
	}
	for name, v := range shares {
		m[name] = metric{v, "share"}
	}
	layers, err := runLayers(o)
	if err != nil {
		return summary{}, err
	}
	for name, v := range layers {
		m[name] = metric{v, "ns"}
	}
	printWhereTimeGoes(os.Stdout, o.workload, table, layers)
	printMetrics(os.Stdout, "e2e-untraced", base)
	printMetrics(os.Stdout, "e2e-traced", withTrace)

	// Every workload reports the whole per-layer set; a layer the workload
	// never reaches reads 0.
	out := map[string]metric{}
	for _, l := range perLayer {
		v := m[l.name]
		out[l.name] = metric{v.Value, l.unit}
	}
	printMetrics(os.Stdout, "layer", out)

	failed := plain.failed + traced.failed + extra.failed
	return summary{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted + extra.attempted,
		Failed:    failed,
		Metrics:   out,
	}, nil
}

// report prints a pass's workload lines and failures.
func report(w io.Writer, label string, p *pass) {
	for _, line := range p.text {
		fmt.Fprintf(w, "%s %s\n", label, line)
	}
	u := ungated(p)
	fmt.Fprintf(w, "%s latency_p50_ms=%.6g latency_p90_ms=%.6g latency_p99_ms=%.6g (samples=%d)\n",
		label, u["latency_p50_ms"].Value, u["latency_p90_ms"].Value, u["latency_p99_ms"].Value, len(p.latency))
	fmt.Fprintf(w, "%s recover_s=%.6g s (interquartile mean of %d restarts)\n",
		label, u["recover_s"].Value, len(p.restart))
	fmt.Fprintf(w, "%s attempted=%d failed=%d fail_frac=%.6g\n",
		label, p.attempted, p.failed, float64(p.failed)/math.Max(1, float64(p.attempted)))
	for _, msg := range p.problems {
		fmt.Fprintf(w, "%s FAILED %s\n", label, msg)
	}
}

func printMetrics(w io.Writer, label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %-28s %14.6g %s\n", label, name, m[name].Value, m[name].Unit)
	}
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interquartileMean is the mean of the middle half of the values. Restart
// times come in phases of a few seconds whose level can differ twofold on
// a shared host; a median flips between the phase levels, while this
// averages them and still drops the outliers.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quantile is the nearest-rank q-quantile; NaN for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// hist counts latencies in milliseconds in buckets 1% wide on a log
// scale, from 1 ns to about 17 minutes. Its quantiles are within 1% of
// the nearest-rank ones, and its size does not grow with the run: keeping
// every per-request sample would grow the heap with the throughput, and
// that would show in peak_rss_mb.
type hist struct {
	counts [histBuckets]uint64
	n      int
}

const (
	histMinMS   = 1e-6
	histBuckets = 2800 // ln(1e12) / ln(1.01) ≈ 2777
)

var histStep = math.Log(1.01)

func (h *hist) add(ms ...float64) {
	for _, x := range ms {
		i := 0
		if x > histMinMS {
			i = min(int(math.Log(x/histMinMS)/histStep), histBuckets-1)
		}
		h.counts[i]++
		h.n++
	}
}

// quantile is the nearest-rank q-quantile, as the geometric middle of its
// bucket; NaN for no values.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return histMinMS * math.Exp((float64(i)+0.5)*histStep)
		}
	}
	return math.NaN() // unreachable: the counts sum to n
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
