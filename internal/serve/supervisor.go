package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// This file implements the shard supervisor: the piece of the distributed
// deployment that owns the shard subprocesses. The router treats a shard
// as an address; the supervisor is what makes that address keep answering.
// It binds each shard's listening socket itself, once, in Start, and hands
// it to every incarnation of the shard process as fd 3 with LISTEN_FDS=1
// (systemd's socket-activation convention; ShardListener is the child's
// half). Because the socket outlives every child, a connection made while
// a shard boots or restarts waits in the backlog instead of being refused:
// readiness is the first answered ping, with no poll, and requests sent
// during a respawn are served by the next incarnation. The supervisor
// health-checks each process over /shard/ping, restarts it when it crashes
// or stops responding (the shard's WAL replay makes a restart safe:
// Restore rebuilds every session the crash interrupted), and tears the
// fleet down in order at shutdown. One supervisor per router process;
// shard i's slot in the supervisor matches its slot in the router
// topology.

// SupervisorOptions tunes process supervision. The zero value of any field
// selects its default.
type SupervisorOptions struct {
	// PingInterval is how often each running shard is health-checked
	// (default 1s).
	PingInterval time.Duration
	// PingTimeout bounds one health-check round trip (default 2s). A ping
	// in flight when the process exits is dropped at once.
	PingTimeout time.Duration
	// PingFailures is how many consecutive failed pings declare a live
	// process hung and force a restart (default 3).
	PingFailures int
	// RestartBackoff is the base delay before a respawn, growing linearly
	// with consecutive restarts (default 250ms, capped at 2s).
	RestartBackoff time.Duration
	// ReadyTimeout bounds how long each incarnation may take from spawn to
	// its first answered ping, replay included (default 15s). Past it,
	// Start fails, and a respawned process is killed as hung.
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

// listenFD is the descriptor a shard process finds its listening socket
// on: the first of exec.Cmd.ExtraFiles, after stdin, stdout and stderr.
const listenFD = 3

// ShardListener returns the listener a shard server serves on. Under a
// Supervisor (LISTEN_FDS=1 in the environment) it is the socket the
// supervisor bound and passed as fd 3; otherwise it is a new one bound on
// addr, for a shard started by hand.
func ShardListener(addr string) (net.Listener, error) {
	if os.Getenv("LISTEN_FDS") != "1" {
		return net.Listen("tcp", addr)
	}
	f := os.NewFile(listenFD, "shard listener")
	defer f.Close() // FileListener holds its own descriptor
	return net.FileListener(f)
}

// shardProc is one supervised process incarnation. done is closed by the
// single waiter goroutine once cmd.Wait returns (Wait must be called
// exactly once per process, so reaping elsewhere observes done instead);
// err is readable after done. ctx ends when the process is reaped or the
// supervisor stops, and bounds every ping sent to this incarnation.
type shardProc struct {
	cmd     *exec.Cmd
	spawned time.Time
	done    chan struct{}
	err     error
	ctx     context.Context
}

// kill sends the process SIGKILL.
func (p *shardProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
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
// directory. It is called again on every restart; the supervisor adds the
// listening socket (ExtraFiles) and LISTEN_FDS=1 to what it returns.
type Supervisor struct {
	addrs []string
	spawn func(i int, addr string) *exec.Cmd
	opts  SupervisorOptions

	mu        sync.Mutex
	listeners []*os.File
	procs     []*shardProc
	restarts  []int

	// ctx ends when Stop or Kill begins; stop ends it.
	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	client *http.Client
}

// NewSupervisor builds a supervisor for the given shard addresses. An
// address with port 0 gets a free port when Start binds it; Addrs reports
// it. Nothing runs until Start.
func NewSupervisor(addrs []string, spawn func(i int, addr string) *exec.Cmd, opts *SupervisorOptions) *Supervisor {
	var o SupervisorOptions
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	return &Supervisor{
		addrs:     append([]string(nil), addrs...),
		spawn:     spawn,
		opts:      o,
		listeners: make([]*os.File, len(addrs)),
		procs:     make([]*shardProc, len(addrs)),
		restarts:  make([]int, len(addrs)),
		ctx:       ctx,
		stop:      stop,
		client:    &http.Client{Transport: &shardTransport{}},
	}
}

// Addrs returns the shard addresses, with the ports Start bound in place
// of any port 0.
func (sv *Supervisor) Addrs() []string { return append([]string(nil), sv.addrs...) }

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

// ping performs one /shard/ping round trip against addr under ctx, reading
// the reply to EOF so the next ping reuses the connection.
func (sv *Supervisor) ping(ctx context.Context, addr string) error {
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

// listen binds shard i's socket on its configured address and records the
// address it got.
func (sv *Supervisor) listen(i int) error {
	ln, err := net.Listen("tcp", sv.addrs[i])
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	defer ln.Close() // the dup below keeps the socket open
	f, err := ln.(*net.TCPListener).File()
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	sv.mu.Lock()
	sv.listeners[i] = f
	sv.mu.Unlock()
	sv.addrs[i] = ln.Addr().String()
	return nil
}

// start spawns shard i on its socket, installs its incarnation under the
// lock, and hands the process to its waiter goroutine.
func (sv *Supervisor) start(i int) (*shardProc, error) {
	cmd := sv.spawn(i, sv.addrs[i])
	cmd.ExtraFiles = []*os.File{sv.listeners[i]}
	cmd.Env = append(cmd.Environ(), "LISTEN_FDS=1")
	spawned := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard %d: starting: %w", i, err)
	}
	ctx, cancel := context.WithCancel(sv.ctx)
	p := &shardProc{cmd: cmd, spawned: spawned, done: make(chan struct{}), ctx: ctx}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
		cancel()
	}()
	sv.mu.Lock()
	sv.procs[i] = p
	sv.mu.Unlock()
	return p, nil
}

// ready waits for incarnation p of shard i to answer its first ping. The
// socket is already listening, so the ping waits in its backlog until the
// process serves. The wait ends early when the process exits or the
// supervisor stops, and fails after ReadyTimeout.
func (sv *Supervisor) ready(i int, p *shardProc) error {
	ctx, cancel := context.WithTimeout(p.ctx, sv.opts.ReadyTimeout)
	defer cancel()
	if err := sv.ping(ctx, sv.addrs[i]); err == nil {
		sv.event(i, "shard ready", "ready_ms", float64(time.Since(p.spawned).Microseconds())/1e3)
		return nil
	}
	// A ping can also fail on a connection the process closed on its way
	// out, before its waiter has seen the exit.
	<-ctx.Done()
	switch {
	case p.exited():
		return fmt.Errorf("shard %d (%s): exited before ready: %v", i, sv.addrs[i], p.err)
	case sv.ctx.Err() != nil:
		return fmt.Errorf("shard %d (%s): supervisor stopping", i, sv.addrs[i])
	}
	return fmt.Errorf("shard %d (%s): not ready within %s", i, sv.addrs[i], sv.opts.ReadyTimeout)
}

// Start binds every shard's socket, spawns every shard, and blocks until
// each answers its first ping. If a bind or spawn fails, a shard exits
// before it serves (a config error, which a respawn would only repeat), or
// ReadyTimeout passes, the fleet is torn down and Start fails. After Start
// returns, a monitor goroutine per shard keeps it alive until Stop.
func (sv *Supervisor) Start() error {
	for i := range sv.addrs {
		if err := sv.listen(i); err != nil {
			sv.Kill()
			return err
		}
	}
	for i := range sv.addrs {
		if _, err := sv.start(i); err != nil {
			sv.Kill()
			return err
		}
	}
	for i := range sv.addrs {
		if err := sv.ready(i, sv.proc(i)); err != nil {
			sv.Kill()
			return err
		}
	}
	for i := range sv.addrs {
		sv.wg.Add(1)
		go sv.monitor(i)
	}
	return nil
}

// monitor keeps shard i alive: it watches for process exit and for ping
// failures (a hung process is killed and takes the exit path), restarting
// with linear backoff until Stop.
func (sv *Supervisor) monitor(i int) {
	defer sv.wg.Done()
	ticker := time.NewTicker(sv.opts.PingInterval)
	defer ticker.Stop()
	pingFailures := 0
	for {
		p := sv.proc(i)
		select {
		case <-sv.ctx.Done():
			return
		case <-p.done:
			if sv.ctx.Err() != nil {
				return
			}
			sv.event(i, "shard process exited; restarting", "err", p.err)
			if !sv.respawn(i) {
				return
			}
			pingFailures = 0
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(p.ctx, sv.opts.PingTimeout)
			err := sv.ping(ctx, sv.addrs[i])
			cancel()
			if err == nil || p.ctx.Err() != nil {
				// Answered, or dropped because the process exited or the
				// supervisor is stopping: the next iteration sees which.
				pingFailures = 0
				continue
			}
			if pingFailures++; pingFailures < sv.opts.PingFailures {
				continue
			}
			// Hung: alive but not answering. Kill it; the next iteration
			// observes the exit and respawns.
			sv.event(i, "killing unresponsive shard", "failed_pings", pingFailures)
			p.kill()
			pingFailures = 0
		}
	}
}

// respawn restarts shard i after a backoff and waits for the new
// incarnation to be ready, killing it if it is not within ReadyTimeout;
// false when the supervisor began stopping while it slept.
func (sv *Supervisor) respawn(i int) bool {
	sv.mu.Lock()
	sv.restarts[i]++
	n := sv.restarts[i]
	sv.mu.Unlock()
	backoff := min(time.Duration(n)*sv.opts.RestartBackoff, maxRestartBackoff)
	select {
	case <-sv.ctx.Done():
		return false
	case <-time.After(backoff):
	}
	p, err := sv.start(i)
	if err != nil {
		// The spawn itself failed (fork/exec): leave the dead incarnation in
		// place so the monitor loops back through the exit path with growing
		// backoff.
		sv.event(i, "respawn failed", "err", err)
		return true
	}
	sv.event(i, "shard restarted")
	if err := sv.ready(i, p); err != nil && !p.exited() && sv.ctx.Err() == nil {
		sv.event(i, "killing shard that never became ready", "err", err)
		p.kill()
	}
	return true
}

// Stop shuts the fleet down: monitors stop (so exits are no longer
// restarts), every shard gets SIGTERM — triggering its own graceful drain —
// and processes are reaped until ctx expires, at which point stragglers are
// killed and reaped anyway (no zombies on either path). The listening
// sockets close once every child is reaped. Kill may follow for a
// second-signal force.
func (sv *Supervisor) Stop(ctx context.Context) {
	if sv.ctx.Err() != nil {
		return // already stopping
	}
	sv.stop()
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
			p.kill()
			<-p.done
		}
	}
	sv.closeListeners()
}

// Kill force-terminates the fleet immediately, reaps every process and
// closes the listening sockets — the second-SIGTERM path, and Start's
// cleanup when a shard never becomes ready.
func (sv *Supervisor) Kill() {
	sv.stop()
	// Monitors first: an in-flight respawn must install its process before
	// the snapshot below, or the new process would outlive the kill.
	sv.wg.Wait()
	sv.mu.Lock()
	procs := append([]*shardProc(nil), sv.procs...)
	sv.mu.Unlock()
	for _, p := range procs {
		if p != nil {
			p.kill()
		}
	}
	for _, p := range procs {
		if p != nil {
			<-p.done
		}
	}
	sv.closeListeners()
}

// closeListeners closes the shards' sockets, once every child holding a
// copy is reaped; connections still in a backlog are reset.
func (sv *Supervisor) closeListeners() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for i, f := range sv.listeners {
		if f != nil {
			f.Close()
			sv.listeners[i] = nil
		}
	}
}
