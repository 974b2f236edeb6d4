// Command perfbench is the end-to-end wall-clock benchmark of the
// distributed join: one client issues rackjoin.Join calls in a closed loop
// (the next join starts when the previous one returned) on one resident
// in-process rack, verifies every result against rackjoin.ExpectedJoin and
// reports the join's wall-clock time, throughput, set-up time and memory.
// With -trace 1 it instead reports per-layer metrics: counters read from
// the cluster's metrics registry around the same loop, the join's own
// trace, and calibration probes that time the cluster, core, rdma, fabric,
// radix, hashtable and mcjoin entry points from outside.
//
// Usage (from the repository root; run.py builds and invokes it):
//
//	perfbench -workload uniform -seed 1 -seconds 40 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any join failed or returned a wrong result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rackjoin/internal/datagen"
	"rackjoin/internal/trace"
)

// The rack every workload runs on: 4 machines × 2 cores. Two-sided
// transport dedicates one core per machine to its network thread, so 2 is
// the smallest core count it accepts. The machine count stays fixed: with
// more simulated cores than host cores, scaling over machines would
// measure the Go scheduler.
const (
	machines = 4
	cores    = 2
	// netboundCap is the per-host egress and ingress cap of the
	// network-bound fabric, in bytes/s. At 2^18 ⋈ 2^20 tuples it makes the
	// network pass ≥ 90% of the join's wall clock.
	netboundCap = 32e6
)

// workload is one benchmark input: the outer relation's key distribution
// and the fabric it is joined on.
type workload struct {
	skew     float64 // Zipf factor of the outer foreign keys; 0 = uniform
	throttle float64 // per-host fabric cap in bytes/s; 0 = unthrottled
}

var workloads = map[string]workload{
	// CPU-bound: kernels, scatter and per-join allocation dominate.
	"uniform": {},
	// Network-bound: the rdma/fabric/buffer-pool path dominates.
	"netbound": {throttle: netboundCap},
	// One hot receiver on the network-bound fabric (paper §6.5 SkewHigh).
	"skew": {skew: datagen.SkewHigh, throttle: netboundCap},
}

// scale sizes one run.
type scale struct {
	inner, outer int
	// setups is how many fresh clusters are timed for setup_s; the last
	// one stays resident for the warm loop.
	setups int
	// warmups is how many joins after the first run untimed.
	warmups int
	// maxJoins caps the timed joins of one run. Every join today leaves
	// ~30 MB live (registered slabs are never released), so the cap is
	// the run's memory budget: 100 joins hold ~3 GB. It is also the
	// smallest count that leaves 10 samples above join_ms.p90.
	maxJoins int
	// probe is the time budget of each calibration probe.
	probe time.Duration
}

var (
	fullScale = scale{inner: 1 << 18, outer: 1 << 20, setups: 7, warmups: 2, maxJoins: 100, probe: 300 * time.Millisecond}
	// tinyScale keeps the smoke test fast; its numbers mean nothing.
	tinyScale = scale{inner: 1 << 12, outer: 1 << 14, setups: 2, warmups: 1, maxJoins: 4, probe: 10 * time.Millisecond}
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string // where traced runs write their Chrome traces; "" = nowhere
	sc       scale
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var o options
	var tr int
	flag.StringVar(&o.workload, "workload", "uniform", "workload: uniform, netbound or skew")
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", 40, "time budget of the timed join loop")
	flag.IntVar(&tr, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.outDir, "out", "", "directory for the Chrome traces of a traced run")
	flag.Parse()
	o.traced = tr != 0
	o.sc = fullScale
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result; progress and the
// reproducibility record go to log.
func run(o options, log io.Writer) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	b := newBench(o, wl)
	fmt.Fprintf(log, "# perfbench workload=%s seed=%d traced=%t machines=%d cores=%d gomaxprocs=%d nproc=%d go=%s throttle_mb_s=%g inner=%d outer=%d tuple_bytes=%d join_cap=%d\n",
		o.workload, o.seed, o.traced, machines, cores, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), wl.throttle/1e6, b.inner.Len(), b.outer.Len(), b.inner.Width(), o.sc.maxJoins)

	r := &result{Metrics: metricSet{}}
	loop, err := b.measure()
	if err != nil {
		return nil, err
	}
	if o.traced {
		if err := b.calibrate(r.Metrics); err != nil {
			return nil, err
		}
		loop.layerMetrics(b, r.Metrics)
		if err := b.writeTraces(); err != nil {
			return nil, err
		}
	} else {
		loop.endToEndMetrics(b, r.Metrics)
	}
	r.Attempted, r.Failed = b.attempted, b.failed
	r.Correct = b.failed == 0
	fmt.Fprintf(log, "# perfbench timed_joins=%d peak_rss_mb=%.0f\n", len(loop.joinMs)+len(loop.tracedMs), peakRSSMB())
	return r, nil
}

// writeTraces exports the benchmark's own spans and the last traced join's
// causal trace as Chrome trace JSON.
func (b *bench) writeTraces() error {
	if b.o.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(b.o.outDir, 0o755); err != nil {
		return err
	}
	for name, rec := range map[string]*trace.Recorder{"spans": b.rec, "join": b.lastJoinTrace} {
		if rec == nil {
			continue
		}
		f, err := os.Create(filepath.Join(b.o.outDir, fmt.Sprintf("perfbench-%s-%s.json", b.o.workload, name)))
		if err != nil {
			return err
		}
		err = rec.WriteChromeJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's peak resident set from /proc (0 where the
// file does not exist).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
