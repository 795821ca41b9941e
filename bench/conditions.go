package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// conditions are the measurement conditions stamped into every record. A
// number is only comparable with one taken under the same conditions, so
// compare refuses to judge across a mismatch in any field but Commit (the
// one thing a parent-versus-change comparison varies on purpose).
type conditions struct {
	Commit      string  `json:"git_commit"`
	GoVersion   string  `json:"go_version"`
	CPU         string  `json:"cpu_model"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Parallelism int     `json:"workers_clients_slots"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	DataFS      string  `json:"data_dir_fs"`
}

func measure(o options) conditions {
	return conditions{
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: parallelism(),
		Seed:        o.seed,
		Seconds:     o.seconds,
		DataFS:      fsType(outDir),
	}
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "-C", "..", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding the data directories: fsync cost,
// which the serve workloads pay on every write, is a property of it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
