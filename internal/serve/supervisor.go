package serve

import (
	"context"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// This file implements the shard supervisor: the piece of the distributed
// deployment that owns the shard subprocesses. The router treats a shard
// as an address; the supervisor is what makes that address keep answering
// — it spawns each shard process, health-checks it over /shard/ping,
// restarts it when it crashes or stops responding (the shard's WAL replay
// makes a restart safe: Restore rebuilds every session the crash
// interrupted), and tears the fleet down in order at shutdown. One
// supervisor per router process; shard i's slot in the supervisor matches
// its slot in the router topology.

// SupervisorOptions tunes process supervision. The zero value of any field
// selects its default.
type SupervisorOptions struct {
	// PingInterval is how often each running shard is health-checked
	// (default 1s).
	PingInterval time.Duration
	// PingTimeout bounds one health-check round trip (default 2s).
	PingTimeout time.Duration
	// PingFailures is how many consecutive failed pings declare a live
	// process hung and force a restart (default 3).
	PingFailures int
	// RestartBackoff is the base delay before a respawn, growing linearly
	// with consecutive restarts (default 250ms, capped at 2s).
	RestartBackoff time.Duration
	// ReadyTimeout bounds how long Start waits for each shard's first
	// successful ping (default 15s).
	ReadyTimeout time.Duration
}

func (o SupervisorOptions) withDefaults() SupervisorOptions {
	if o.PingInterval <= 0 {
		o.PingInterval = time.Second
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 2 * time.Second
	}
	if o.PingFailures <= 0 {
		o.PingFailures = 3
	}
	if o.RestartBackoff <= 0 {
		o.RestartBackoff = 250 * time.Millisecond
	}
	if o.ReadyTimeout <= 0 {
		o.ReadyTimeout = 15 * time.Second
	}
	return o
}

// maxRestartBackoff caps the linear restart backoff: a crash-looping shard
// retries every 2s, fast enough that a transient cause (disk pressure, a
// poisoned request that died with the process) clears quickly.
const maxRestartBackoff = 2 * time.Second

// shardProc is one supervised process incarnation. done is closed by the
// single waiter goroutine once cmd.Wait returns (Wait must be called
// exactly once per process, so reaping elsewhere observes done instead);
// err is readable after done.
type shardProc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// exited reports whether the process has been reaped.
func (p *shardProc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Supervisor spawns and supervises one shard subprocess per address. Spawn
// builds the (unstarted) command for shard i serving addr — typically
// re-invoking the server binary with -shard-server and that shard's data
// directory. It is called again on every restart.
type Supervisor struct {
	addrs []string
	spawn func(i int, addr string) *exec.Cmd
	opts  SupervisorOptions

	mu       sync.Mutex
	procs    []*shardProc
	restarts []int
	stopping bool

	stopCh chan struct{}
	wg     sync.WaitGroup
	client *http.Client
}

// NewSupervisor builds a supervisor for the given shard addresses. Nothing
// runs until Start.
func NewSupervisor(addrs []string, spawn func(i int, addr string) *exec.Cmd, opts *SupervisorOptions) *Supervisor {
	var o SupervisorOptions
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	return &Supervisor{
		addrs:    addrs,
		spawn:    spawn,
		opts:     o,
		procs:    make([]*shardProc, len(addrs)),
		restarts: make([]int, len(addrs)),
		stopCh:   make(chan struct{}),
		client:   &http.Client{Transport: &shardTransport{}},
	}
}

// Restarts reports how many times shard i has been respawned after its
// initial start.
func (sv *Supervisor) Restarts(i int) int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.restarts[i]
}

// Pid reports shard i's current process id (0 if none has started).
func (sv *Supervisor) Pid(i int) int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if p := sv.procs[i]; p != nil && p.cmd != nil && p.cmd.Process != nil {
		return p.cmd.Process.Pid
	}
	return 0
}

// event reports one supervision event for shard i through the structured
// logger, with the shard's address, pid, and restart count attached. It
// must not be called with sv.mu held (Pid and Restarts take it).
func (sv *Supervisor) event(i int, msg string, args ...any) {
	all := append([]any{
		"shard", i, "addr", sv.addrs[i], "pid", sv.Pid(i), "restart_count", sv.Restarts(i),
	}, args...)
	obs.Logger("supervisor").Info(msg, all...)
}

// proc returns shard i's current incarnation.
func (sv *Supervisor) proc(i int) *shardProc {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.procs[i]
}

// ping performs one /shard/ping round trip against addr, reading the
// reply to EOF so the next ping reuses the connection.
func (sv *Supervisor) ping(addr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), sv.opts.PingTimeout)
	defer cancel()
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/shard/ping", nil)
	if err != nil {
		return err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return err
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ping %s: %s", addr, resp.Status)
	}
	return nil
}

// start spawns shard i, installs its incarnation under the lock, and hands
// the process to its waiter goroutine.
func (sv *Supervisor) start(i int) (*shardProc, error) {
	cmd := sv.spawn(i, sv.addrs[i])
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard %d: starting: %w", i, err)
	}
	p := &shardProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	sv.mu.Lock()
	sv.procs[i] = p
	sv.mu.Unlock()
	return p, nil
}

// Start spawns every shard and blocks until each answers its first ping
// (or ReadyTimeout passes — then the fleet is torn down and Start fails).
// After Start returns, a monitor goroutine per shard keeps it alive until
// Stop.
func (sv *Supervisor) Start() error {
	for i := range sv.addrs {
		if _, err := sv.start(i); err != nil {
			sv.Kill()
			return err
		}
	}
	deadline := time.Now().Add(sv.opts.ReadyTimeout)
	for i, addr := range sv.addrs {
		for {
			if err := sv.ping(addr); err == nil {
				break
			}
			if p := sv.proc(i); p.exited() {
				// Died before ever answering: a config error, not a crash —
				// respawning would loop on it.
				sv.Kill()
				return fmt.Errorf("shard %d (%s): exited before ready: %v", i, addr, p.err)
			}
			if time.Now().After(deadline) {
				sv.Kill()
				return fmt.Errorf("shard %d (%s): not ready within %s", i, addr, sv.opts.ReadyTimeout)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	for i := range sv.addrs {
		sv.wg.Add(1)
		go sv.monitor(i)
	}
	return nil
}

// monitor keeps shard i alive: it watches for process exit and for ping
// failures (a hung process holds its port, so it is killed and takes the
// exit path), restarting with linear backoff until Stop. A respawned shard
// is starting, not hung, until its first answered ping or ReadyTimeout —
// the same grace Start gives — since its WAL replay re-runs every logged
// session before it listens.
func (sv *Supervisor) monitor(i int) {
	defer sv.wg.Done()
	ticker := time.NewTicker(sv.opts.PingInterval)
	defer ticker.Stop()
	pingFailures := 0
	var startingUntil time.Time
	for {
		p := sv.proc(i)
		select {
		case <-sv.stopCh:
			return
		case <-p.done:
			sv.mu.Lock()
			stopping := sv.stopping
			sv.mu.Unlock()
			if stopping {
				return
			}
			sv.event(i, "shard process exited; restarting", "err", p.err)
			if !sv.respawn(i) {
				return
			}
			pingFailures = 0
			startingUntil = time.Now().Add(sv.opts.ReadyTimeout)
		case <-ticker.C:
			if err := sv.ping(sv.addrs[i]); err != nil {
				if time.Now().Before(startingUntil) {
					continue
				}
				pingFailures++
				if pingFailures < sv.opts.PingFailures {
					continue
				}
				// Hung: alive but not answering. Kill it; the next iteration
				// observes the exit and respawns.
				sv.event(i, "killing unresponsive shard", "failed_pings", pingFailures)
				if p.cmd.Process != nil {
					_ = p.cmd.Process.Kill()
				}
				pingFailures = 0
				continue
			}
			pingFailures = 0
			startingUntil = time.Time{}
		}
	}
}

// respawn restarts shard i after a backoff; false when the supervisor
// began stopping while it slept.
func (sv *Supervisor) respawn(i int) bool {
	sv.mu.Lock()
	sv.restarts[i]++
	n := sv.restarts[i]
	sv.mu.Unlock()
	backoff := min(time.Duration(n)*sv.opts.RestartBackoff, maxRestartBackoff)
	select {
	case <-sv.stopCh:
		return false
	case <-time.After(backoff):
	}
	if _, err := sv.start(i); err != nil {
		// The spawn itself failed (fork/exec): leave the dead incarnation in
		// place so the monitor loops back through the exit path with growing
		// backoff.
		sv.event(i, "respawn failed", "err", err)
		return true
	}
	sv.event(i, "shard restarted")
	return true
}

// Stop shuts the fleet down: monitors stop (so exits are no longer
// restarts), every shard gets SIGTERM — triggering its own graceful drain —
// and processes are reaped until ctx expires, at which point stragglers are
// killed and reaped anyway (no zombies on either path). Kill may follow for
// a second-signal force.
func (sv *Supervisor) Stop(ctx context.Context) {
	sv.mu.Lock()
	if sv.stopping {
		sv.mu.Unlock()
		return
	}
	sv.stopping = true
	sv.mu.Unlock()
	close(sv.stopCh)
	sv.wg.Wait()
	sv.client.CloseIdleConnections() // the health loops are done pinging
	sv.mu.Lock()
	procs := append([]*shardProc(nil), sv.procs...)
	sv.mu.Unlock()
	for _, p := range procs {
		if p != nil && !p.exited() && p.cmd.Process != nil {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for i, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-ctx.Done():
			sv.event(i, "shard drain timed out; killing")
			if p.cmd.Process != nil {
				_ = p.cmd.Process.Kill()
			}
			<-p.done
		}
	}
}

// Kill force-terminates the fleet immediately and reaps every process —
// the second-SIGTERM path, and Start's cleanup when a shard never becomes
// ready.
func (sv *Supervisor) Kill() {
	sv.mu.Lock()
	sv.stopping = true
	select {
	case <-sv.stopCh:
	default:
		close(sv.stopCh)
	}
	sv.mu.Unlock()
	// Monitors first: an in-flight respawn must install its process before
	// the snapshot below, or the new process would outlive the kill.
	sv.wg.Wait()
	sv.mu.Lock()
	procs := append([]*shardProc(nil), sv.procs...)
	sv.mu.Unlock()
	for _, p := range procs {
		if p != nil && p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
		}
	}
	for _, p := range procs {
		if p != nil {
			<-p.done
		}
	}
}
