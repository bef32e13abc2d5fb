package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	eg "github.com/epfl-repro/everythinggraph"
)

// hostLine describes the machine a run measured: CPU model, CPU counts,
// NUMA nodes and the cache sizes the working set is compared against.
func hostLine() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d numa_nodes=%d caches=%s go=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), eg.NumNUMANodes(), caches(), runtime.Version())
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

// caches lists CPU 0's data and unified caches as L<level>=<size>.
func caches() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		out = append(out, "L"+read("level")+"="+read("size"))
	}
	if len(out) == 0 {
		return "unknown"
	}
	return strings.Join(out, ",")
}

// cpuTicks reads the machine's CPU time and the part of it stolen by the
// hypervisor from the first line of /proc/stat, in clock ticks. Stolen time
// is time the machine's CPUs wanted to run but the host ran something else;
// it is what slows whole runs on a shared host. Both read 0 where
// /proc/stat is missing.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted in user and nice.
	for i, f := range strings.Fields(line)[1:] {
		if i == 8 {
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealLine says what share of the machine's CPU time the host stole
// between two cpuTicks readings.
func stealLine(total0, steal0, total1, steal1 uint64) string {
	if total1 <= total0 {
		return "host steal: unknown"
	}
	return fmt.Sprintf("host steal: %.1f%% of CPU time during the measured phase", 100*float64(steal1-steal0)/float64(total1-total0))
}
