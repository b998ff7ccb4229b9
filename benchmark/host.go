package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint identifies the host a record was measured on. Numbers
// from different fingerprints are never compared.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Storage    string  `json:"storage"` // what holds the durable store's files
	CalRefMS   float64 `json:"cal_ref_ms"`
	CalMS      float64 `json:"cal_ms"` // median calibration time of this run
}

func hostFingerprint(dataDir string, calMS float64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernelRelease(),
		Storage:    storageKind(dataDir),
		CalRefMS:   CalRefMS,
		CalMS:      calMS,
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
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// storageKind tells a memory-backed file system, where fsync is free,
// from a disk.
func storageKind(dir string) string {
	const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case tmpfsMagic, ramfsMagic:
		return "tmpfs"
	}
	return "disk"
}
