package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"sos/internal/leakcheck"
	"sos/internal/server"
)

const testSpec = `{
  "graph": {
    "name": "t",
    "subtasks": [{"name": "A"}, {"name": "B"}],
    "arcs": [{"src": "A", "dst": "B", "volume": 2, "fa": 1}]
  },
  "library": {
    "name": "lib", "link_cost": 1, "remote_delay": 1, "local_delay": 0,
    "types": [
      {"name": "p1", "cost": 3, "exec": [1, 2]},
      {"name": "p2", "cost": 2, "exec": [null, 1]}
    ]
  },
  "pool": [2, 1]
}`

// TestServeSolveSigterm drives the daemon end to end in-process: boot on
// an ephemeral port, serve a solve, deliver SIGTERM, and require a clean
// drain (run returns nil) with the farewell stats line written. The
// listening line reports the started server's workers and its defaulted
// queue depth (4 per worker).
func TestServeSolveSigterm(t *testing.T) {
	leakcheck.Check(t)
	logPath := filepath.Join(t.TempDir(), "sosd.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "3", "-drain-grace", "2s"}, logFile)
	}()

	// The listen address lands in the first log line.
	addrRe := regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)(.*)`)
	var addr, rest string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no listen line in %s", logPath)
		}
		raw, _ := os.ReadFile(logPath)
		if m := addrRe.FindSubmatch(raw); m != nil {
			addr, rest = string(m[1]), string(m[2])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if rest != " (workers 3, queue 12)" {
		t.Errorf("listening line ends %q, want \" (workers 3, queue 12)\"", rest)
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"spec": %s}`, testSpec)))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body[:n]), `"status":"optimal"`) {
		t.Fatalf("solve: code %d body %s", resp.StatusCode, body[:n])
	}

	// SIGTERM to our own process: run's NotifyContext catches it and
	// drains; the test binary survives because the handler is installed.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil after graceful drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sosd did not drain within 30s of SIGTERM")
	}
	raw, _ := os.ReadFile(logPath)
	if !strings.Contains(string(raw), "bye: served 1") {
		t.Errorf("missing farewell stats line; log:\n%s", raw)
	}
}

// TestConfigHelpers pins the worker and queue-depth defaults that the
// listening line reports: the numbers come from the started server, so a
// zero flag must resolve to 2 workers and 4 queue slots per worker.
func TestConfigHelpers(t *testing.T) {
	leakcheck.Check(t)
	for _, c := range []struct{ workers, queue, wantWorkers, wantDepth int }{
		{0, 0, 2, 8},
		{7, 0, 7, 28},
		{3, 0, 3, 12},
		{3, 5, 3, 5},
	} {
		srv := server.New(server.Config{Workers: c.workers, QueueDepth: c.queue})
		_, depth := srv.Queue()
		if srv.Workers() != c.wantWorkers || depth != c.wantDepth {
			t.Errorf("-workers %d -queue %d: workers %d, queue %d; want %d, %d",
				c.workers, c.queue, srv.Workers(), depth, c.wantWorkers, c.wantDepth)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	}
}

func TestBadFlags(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := run([]string{"-no-such-flag"}, devnull); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-addr", "256.256.256.256:99999"}, devnull); err == nil {
		t.Error("unlistenable address accepted")
	}
}
