// Package leakcheck is a leaktest-style goroutine-leak assertion for the
// concurrent parts of the solver stack: the portfolio race's rungs, the
// cache's single-flight waiters, and every sosd server handler. Call
// Check at the top of a test; at cleanup it verifies every goroutine the
// test started has exited.
//
// The comparison is by normalized stack trace (goroutine IDs, hex
// addresses, and argument values stripped), so pre-existing runtime,
// testing, and timer goroutines are ignored and pool workers with
// identical call stacks do not alias. Cleanup polls with a grace window
// because goroutine teardown is asynchronous even after WaitGroup.Wait
// returns in the code under test.
package leakcheck

import (
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// Check snapshots the running goroutines and registers a cleanup that
// fails the test if, after a grace period, goroutines not present at the
// snapshot are still running.
func Check(t testing.TB) {
	t.Helper()
	before := snapshot()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var leaked []string
		for {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutine(s) leaked:\n%s",
			len(leaked), strings.Join(leaked, "\n---\n"))
	})
}

// leakedSince returns the interesting goroutine stacks running now that
// were not present in the before snapshot.
func leakedSince(before map[string]int) []string {
	now := snapshot()
	var leaked []string
	for stack, n := range now {
		if n > before[stack] {
			leaked = append(leaked, fmt.Sprintf("%d instance(s) of:\n%s", n-before[stack], stack))
		}
	}
	sort.Strings(leaked)
	return leaked
}

var (
	hexRe    = regexp.MustCompile(`0x[0-9a-f]+`)
	headerRe = regexp.MustCompile(`^goroutine \d+ \[[^\]]*\]:$`)
)

// snapshot returns the multiset of normalized interesting goroutine
// stacks, keyed by stack text with volatile content stripped.
func snapshot() map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		norm, ok := normalize(g)
		if ok {
			out[norm]++
		}
	}
	return out
}

// normalize strips the goroutine header, argument hex, and state so the
// same code path always yields the same key, and filters out goroutines
// the test runner and runtime own.
func normalize(g string) (string, bool) {
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) == 0 || !headerRe.MatchString(lines[0]) {
		return "", false
	}
	body := strings.Join(lines[1:], "\n")
	body = hexRe.ReplaceAllString(body, "0x?")
	if body == "" || !interesting(body) {
		return "", false
	}
	return body, true
}

// interesting reports whether a stack belongs to code under test rather
// than the test harness, the runtime, or process-lifetime singletons.
func interesting(stack string) bool {
	for _, benign := range []string{
		"testing.Main(",
		"testing.tRunner(",
		"testing.(*M).",
		"testing.runTests(",
		"testing.runFuzzing(",
		"runtime.goexit",
		"created by runtime.gc",
		"created by runtime/trace",
		"runtime.MHeap_Scavenger",
		"runtime.ReadTrace",
		"signal.signal_recv",
		"os/signal.signal_recv",
		"os/signal.loop",
		"runtime.ensureSigM",
		"leakcheck.snapshot",
		"interestingGoroutines",
		// The first Timer/Ticker in a process starts a lazy runtime
		// worker that never exits; it is not a leak.
		"time.goFunc",
		"runtime.timerproc",
		// net/http's idle-connection reaper is process-lifetime.
		"net/http.(*http2clientConnPool)",
	} {
		if strings.Contains(stack, benign) {
			return false
		}
	}
	return true
}
