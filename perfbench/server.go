package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// server is one freshly started service under test: the batchsvc binary,
// or this binary's traced in-process wiring of the same layers.
type server struct {
	p     *proc
	dir   string
	base  string // API base URL
	pprof string // pprof/metrics base URL ("" when the server has none)
	setup time.Duration
}

// serverMode picks what a launcher starts.
type serverMode int

const (
	// inMemory is batchsvc without a store. End-to-end runs use it: the
	// only place a run may write is its checkout, and a WAL there sits on
	// whatever disk holds the checkout, whose fsync latency can swing
	// tenfold from minute to minute on a shared machine.
	inMemory serverMode = iota
	// durable is batchsvc with its WAL in the run's directory.
	durable
	// traced is this binary's traced wiring, with its WALs in the run's
	// directory.
	traced
)

// launcher starts servers, each in a fresh directory (data dir and log)
// under root and on fresh loopback ports.
type launcher struct {
	root     string
	batchsvc string
	n        int
}

// startAttempts bounds how often a start is retried with fresh ports: a
// port found free can be taken by another socket before the server binds.
const startAttempts = 3

func (l *launcher) start(ctx context.Context, w workloadSpec, mode serverMode) (*server, error) {
	var err error
	for attempt := 0; attempt < startAttempts; attempt++ {
		var s *server
		if s, err = l.startOnce(ctx, w, mode); err == nil || ctx.Err() != nil {
			return s, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: server start failed (attempt %d of %d): %v\n", attempt+1, startAttempts, err)
	}
	return nil, err
}

func (l *launcher) startOnce(ctx context.Context, w workloadSpec, mode serverMode) (*server, error) {
	l.n++
	dir := filepath.Join(l.root, fmt.Sprintf("srv-%02d", l.n))
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	var ports [3]int
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	s := &server{dir: dir, base: fmt.Sprintf("http://127.0.0.1:%d", ports[0])}
	bin := l.batchsvc
	var args []string
	if mode == traced {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		bin = self
		args = []string{"serve-traced",
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[0]),
			"-data-dir", data,
			"-shards", strconv.Itoa(w.shards),
			"-batchsvc", l.batchsvc,
		}
		if w.distribute {
			args = append(args, "-remote-addr", fmt.Sprintf("127.0.0.1:%d", ports[2]))
		}
	} else {
		s.pprof = fmt.Sprintf("http://127.0.0.1:%d", ports[1])
		args = []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[0]),
			"-pprof", strconv.Itoa(ports[1]),
			"-shards", strconv.Itoa(w.shards),
			"-shutdown-timeout", "5s",
		}
		if mode == durable {
			args = append(args, "-data-dir", data)
		}
		if w.distribute {
			// Shard i listens on base+i; slot 1 is the only remote one.
			args = append(args, "-distribute", "-shard-port-base", strconv.Itoa(ports[2]-1))
		}
	}
	start := time.Now()
	p, err := startProc(bin, args, filepath.Join(dir, "server.log"), true)
	if err != nil {
		return nil, err
	}
	s.p = p
	if err := waitHealthy(ctx, s, w.shards); err != nil {
		p.kill()
		return nil, fmt.Errorf("%w\n%s", err, tailLog(filepath.Join(dir, "server.log")))
	}
	s.setup = time.Since(start)
	return s, nil
}

// waitHealthy polls GET /api/stats until it reports a healthy service with
// every shard answering.
func waitHealthy(ctx context.Context, s *server, shards int) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		if s.p.exited() {
			return fmt.Errorf("server exited during start-up: %v", s.p.err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		last = statsHealthy(client, s.base, shards)
		if last == nil {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server not healthy within 60s: %v", last)
}

func statsHealthy(client *http.Client, base string, shards int) error {
	resp, err := client.Get(base + "/api/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: %s", resp.Status)
	}
	var st struct {
		Health struct {
			Degraded bool `json:"degraded"`
		} `json:"health"`
		Partial bool `json:"partial"`
		Shards  []struct {
			Error string `json:"error"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if st.Health.Degraded || st.Partial || len(st.Shards) != shards {
		return fmt.Errorf("stats: not healthy yet")
	}
	for _, sh := range st.Shards {
		if sh.Error != "" {
			return fmt.Errorf("stats: shard unreachable: %s", sh.Error)
		}
	}
	return nil
}

func tailLog(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// memStats are the Go runtime figures a batchsvc process prints at the end
// of its heap profile.
type memStats struct {
	heapAlloc, totalAlloc, numGC uint64
}

// readMemStats reads the runtime figures from the pprof endpoint, forcing a
// GC first when gc is set (so heapAlloc is the live heap).
func readMemStats(pprofBase string, gc bool) (memStats, error) {
	url := pprofBase + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return memStats{}, err
	}
	var m memStats
	found := 0
	for _, line := range strings.Split(string(raw), "\n") {
		for _, f := range []struct {
			format string
			into   *uint64
		}{{"# HeapAlloc = %d", &m.heapAlloc}, {"# TotalAlloc = %d", &m.totalAlloc}, {"# NumGC = %d", &m.numGC}} {
			if _, err := fmt.Sscanf(line, f.format, f.into); err == nil {
				found++
			}
		}
	}
	if found != 3 {
		return memStats{}, fmt.Errorf("heap profile lacks the HeapAlloc, TotalAlloc or NumGC line")
	}
	return m, nil
}
