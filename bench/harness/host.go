package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// provenance records what a results document was measured on and with.
type provenance struct {
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Revision     string `json:"revision"`
	Seed         uint64 `json:"seed"`
	StateFS      string `json:"state_fs"`
	InputsHash   string `json:"inputs_hash"`
	TraceSetHash string `json:"trace_set_hash"`
	Started      string `json:"started"`
}

func newProvenance(seed uint64, stateDir string) provenance {
	return provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   obs.CodeRevision(),
		Seed:       seed,
		StateFS:    fsType(stateDir),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsTypes names the statfs magic numbers of the filesystems a state
// directory is likely to sit on.
var fsTypes = map[uint64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0x01021997: "9p",
	0x6A656A63: "virtiofs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	t := uint64(st.Type)
	if name, ok := fsTypes[t]; ok {
		return name
	}
	return "0x" + strconv.FormatUint(t, 16)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB
// (10^6 bytes).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// rssSampler reads the process's resident set size every 10 ms until it is
// stopped. The Go heap hands memory back to the kernel within milliseconds
// of each collection, so the resident set is a sawtooth whose maximum
// (VmHWM) and upper percentiles catch whichever spikes were tallest; its
// median is the steady measure of the footprint.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns its samples, in MB.
func (r *rssSampler) finish() []float64 {
	close(r.stop)
	<-r.done
	return r.samples
}

// residentMB reads the current resident set size, in MB, from
// /proc/self/statm, whose second field counts resident pages.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / 1e6, true
}

// hostSample is a point-in-time reading of the process's resource use.
type hostSample struct {
	cpu    time.Duration
	faults int64
	gcs    uint32
	alloc  uint64
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		faults: ru.Minflt,
		gcs:    ms.NumGC,
		alloc:  ms.TotalAlloc,
	}
}

// hostMetrics turns two samples into the host layer's metrics.
func hostMetrics(a, b hostSample, into map[string]float64) {
	into["host.cpu_s"] = (b.cpu - a.cpu).Seconds()
	into["host.minor_faults"] = float64(b.faults - a.faults)
	into["host.gc_cycles"] = float64(b.gcs - a.gcs)
	into["host.alloc_mb"] = float64(b.alloc-a.alloc) / 1e6
	into["host.peak_rss_mb"] = peakRSSMB()
}
