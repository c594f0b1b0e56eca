package main

// Host-speed calibration. On the host the baseline was recorded on, the
// speed of allocation- and pointer-heavy code drifts by 10–50% over minutes
// while register-only arithmetic stays flat: the drift is memory-system
// contention from other tenants. Every timing end-to-end metric is
// therefore expressed at a reference host speed, measured by a fixed
// memory-bound kernel that belongs to the benchmark and runs between the
// measured slices. The kernel does not call into the program, so a change
// to the program cannot move it; it runs in a child process, so it leaves
// the measured process's heap, CPU time and peak RSS alone.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// calRefMS is the calibration kernel's wall time at the reference host
// speed, about its median on the 2-vCPU host the baseline was recorded on.
// A run whose calibration takes twice as long has its times halved.
const calRefMS = 24.0

// calReps is how many times one calibration runs the kernel.
const calReps = 3

// calEnv, set to a repetition count, turns the command into the
// calibration child: it runs the kernel that many times and prints the
// wall times in ms as a JSON list.
const calEnv = "PERFBENCH_CALIBRATE"

// calNodes is the number of nodes each calibration worker allocates.
const calNodes = 60000

// hostScale is the factor that converts a time measured between the
// calibrations before and after to the reference host speed: below 1 when
// the host was slower than the reference.
func hostScale(before, after []float64) float64 {
	return calRefMS / median(append(append([]float64(nil), before...), after...))
}

// calibrate runs the calibration child once and returns its kernel times.
func calibrate() ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), calEnv+"="+strconv.Itoa(calReps))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	var times []float64
	if err := json.Unmarshal(out, &times); err != nil || len(times) != calReps {
		return nil, fmt.Errorf("calibration printed %q", out)
	}
	return times, nil
}

// calibrationChild is the child's whole work; it returns the exit code.
func calibrationChild(reps string, stdout io.Writer) int {
	n, err := strconv.Atoi(reps)
	if err != nil || n < 1 {
		return 2
	}
	debug.SetGCPercent(-1)
	times := make([]float64, n)
	for i := range times {
		times[i] = calKernelAllCPUs()
		runtime.GC()
	}
	if err := json.NewEncoder(stdout).Encode(times); err != nil {
		return 1
	}
	return 0
}

type calNode struct {
	key  int
	next *calNode
	pad  [4]int
}

// calSink keeps the kernel's results live.
var calSink int

// calKernelAllCPUs runs calKernel on every CPU at the same time and
// returns the wall time in ms.
func calKernelAllCPUs() float64 {
	n := runtime.GOMAXPROCS(0)
	sums := make([]int, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = calKernel(int64(i))
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		calSink += s
	}
	return ms(d)
}

// calKernel allocates a linked list of calNodes nodes with seeded keys,
// indexes them in a map, sorts the keys and walks the list through the
// map.
func calKernel(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	m := make(map[int]*calNode)
	var head *calNode
	for i := 0; i < calNodes; i++ {
		n := &calNode{key: rng.Int(), next: head}
		head = n
		m[n.key] = n
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	sum := keys[len(keys)/2]
	for n := head; n != nil; n = n.next {
		sum += m[n.key].key & 1
	}
	return sum
}
