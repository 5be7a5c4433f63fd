package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// calibTable is a CRC polynomial the standard library has no hardware path
// for, so the kernel below costs the same instructions on every box.
var calibTable = crc32.MakeTable(0xD5828281)

var calibSink uint32

// calibrate times a fixed kernel (CRC-32 over 8 MiB, median of five) in
// milliseconds. It runs before and after the timed span: when the two
// differ, the box changed speed under the run.
func calibrate() float64 {
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		calibSink += crc32.Checksum(buf, calibTable)
		times[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// hostDelta measures what the process consumed between start and stop.
type hostDelta struct {
	wall0  time.Time
	cpu0   time.Duration
	mem0   runtime.MemStats
	wall   time.Duration
	cpu    time.Duration
	allocB uint64
	gcNs   uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startHostDelta() hostDelta {
	h := hostDelta{wall0: time.Now(), cpu0: processCPU()}
	runtime.ReadMemStats(&h.mem0)
	return h
}

func (h *hostDelta) stop() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h.wall, h.cpu = time.Since(h.wall0), processCPU()-h.cpu0
	h.allocB, h.gcNs = m.TotalAlloc-h.mem0.TotalAlloc, m.PauseTotalNs-h.mem0.PauseTotalNs
}

// fsName names the filesystem dir lives on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}

// describeHost writes the run's header: what ran, on what.
func describeHost(cfg config) {
	cfg.logf("rstore benchmark: workload=%s seed=%d seconds=%g trace=%v backend=%s", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.backend)
	fs := fsName(cfg.dataRoot)
	cfg.logf("host: nproc=%d GOMAXPROCS=%d %s %s/%s data-root=%s (%s)", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cfg.dataRoot, fs)
	if fs != "tmpfs" {
		cfg.logf("warning: the data root is not tmpfs: every batch is fsynced to the sandbox's disk, whose latency is part of every write timing")
	}
}
