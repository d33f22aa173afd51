package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// hostInfo stamps every result with the machine and toolchain it came from.
type hostInfo struct {
	CPU        string   `json:"cpu"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	SIMD       []string `json:"simd"`
	GoVersion  string   `json:"go"`
	Commit     string   `json:"commit"`
}

// simdFlags are the /proc/cpuinfo flags that select a kernel tier.
var simdFlags = map[string]bool{"sse4_2": true, "avx": true, "avx2": true, "fma": true, "avx512f": true}

func readHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				h.CPU = strings.TrimSpace(val)
			case "flags":
				for _, fl := range strings.Fields(val) {
					if simdFlags[fl] {
						h.SIMD = append(h.SIMD, fl)
					}
				}
			}
			if h.CPU != "unknown" && h.SIMD != nil {
				break
			}
		}
		f.Close()
		sort.Strings(h.SIMD)
	}
	// The commit comes from the build's VCS stamp; a checkout without .git
	// (the driver's) has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// refN is the side of the frozen reference GEMM.
const refN = 128

// refGemm is the benchmark-owned yardstick: a scalar float32 matrix product
// that shares no code with internal/tensor. It must never change — its time
// is what tells a slower host from a slower program, and the unit ("ref") the
// end-to-end time metrics are reported in.
func refGemm(c, a, b []float32) {
	for i := 0; i < refN; i++ {
		for j := 0; j < refN; j++ {
			var acc float32
			for k := 0; k < refN; k++ {
				acc += a[i*refN+k] * b[k*refN+j]
			}
			c[i*refN+j] = acc
		}
	}
}

// refSink keeps the compiler from eliding refGemm.
var refSink float32

// refGap is how often the frozen reference runs while a window is measured:
// one ~2 ms product every 100 ms costs the workload about 2 % of one vCPU, on
// every commit alike.
const refGap = 100 * time.Millisecond

// refSampler times the frozen reference throughout a measured window, on the
// same cores and at the same moments as the workload, so that the window's
// times can be expressed in units of it. The host's speed changes in phases
// of minutes; a yardstick measured before or after the window misses them.
type refSampler struct {
	stop, done chan struct{}
	samples    []float64 // ms
}

func startRefSampler() *refSampler {
	r := &refSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		a := make([]float32, refN*refN)
		b := make([]float32, refN*refN)
		c := make([]float32, refN*refN)
		for i := range a {
			a[i] = float32(i%7) / 7
			b[i] = float32(i%5) / 5
		}
		tick := time.NewTicker(refGap)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				t0 := time.Now()
				refGemm(c, a, b)
				r.samples = append(r.samples, ms(time.Since(t0)))
				refSink += c[len(r.samples)%len(c)]
			}
		}
	}()
	return r
}

// finish stops the sampler, waits for it and returns its samples in ms.
func (r *refSampler) finish() []float64 {
	close(r.stop)
	<-r.done
	return r.samples
}
