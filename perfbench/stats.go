package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples is a set of timings or values in one unit.
type samples []float64

// quantile is the nearest-rank q-quantile (0 < q <= 1); 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// addTail records, as information, the highest percentile of s that still
// has at least ten samples beyond it — the tail the sample supports — as
// <prefix>_p<percentile>.
func (o *outcome) addTail(prefix string, s samples, unit string) {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		if float64(len(s))*(1-p/100) >= 10 {
			best = p
		}
	}
	if best == 0 {
		return
	}
	o.named[prefix+"_p"+strconv.FormatFloat(best, 'f', -1, 64)] = named{s.quantile(best / 100), unit, len(s)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
