package repro_test

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// benchEnvironment is the environment envelope every generated BENCH_*.json
// records: the fields perfbench's envelope prints (Go version, GOMAXPROCS,
// CPU count and model, git revision) plus the date. A revision with
// uncommitted changes is marked "+dirty", since a report is usually
// regenerated before the change that moves it is committed.
func benchEnvironment() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"rev":        gitRev(),
		"date":       time.Now().UTC().Format("2006-01-02"),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return "unknown"
}

// gitRev names the measured source: the short HEAD of the repository,
// "+dirty" when the work tree differs from it, else "unknown".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		rev += "+dirty"
	}
	return rev
}
