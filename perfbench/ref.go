package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// The reference service is a fixed loopback HTTP + JSON workload built from
// this directory alone: nothing in it calls the repository's packages, so
// no change to the program under test can move it. End-to-end runs
// interleave it with the workload inside the measured window and read the
// machine's speed off it (see README.md, "Reference normalisation").
const (
	// refSegments is how many workload/reference pairs a window is cut
	// into, so the reference samples the machine's speed all through it.
	refSegments = 16
	// refShare is the share of each segment spent on the reference.
	refShare = 1.0 / 4
	// refRequests is the number of requests in one reference operation,
	// as in one lifecycle.
	refRequests = 6
	// The nominal figures are one reference operation's mean, median and
	// 99th-percentile client-side time and the reference server's CPU time
	// per operation, on the 2-CPU machine the benchmark was tuned on when
	// it was calm. They only fix the scale: the normalised figures read as
	// if the machine had run at that speed throughout.
	refNominalMS    = 2.0
	refNominalP50MS = 2.0
	refNominalP99MS = 4.0
	refNominalCPUMS = 1.2
)

// refDoc is the reference request and response body.
type refDoc struct {
	ID     string            `json:"id"`
	Seq    int               `json:"seq"`
	Labels map[string]string `json:"labels"`
	Values []float64         `json:"values"`
}

// serveRef is the "serve-ref" mode: the reference server.
func serveRef(args []string) error {
	fs := flag.NewFlagSet("serve-ref", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ref", handleRef)
	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}

// handleRef decodes a document, derives a new one from it and encodes it:
// allocation, JSON and a little arithmetic, like a session request.
func handleRef(w http.ResponseWriter, r *http.Request) {
	var in refDoc
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := refDoc{ID: in.ID, Seq: in.Seq + 1, Labels: make(map[string]string, len(in.Labels)),
		Values: make([]float64, 0, 2*len(in.Values))}
	for k, v := range in.Labels {
		out.Labels[k] = v + "/" + k
	}
	x := uint64(in.Seq)*2654435761 | 1
	for _, v := range in.Values {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out.Values = append(out.Values, v, float64(x%10007)/10007)
	}
	sort.Float64s(out.Values)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// refServer is a running reference server and a client of it.
type refServer struct {
	p *proc
	c *client
	// lat holds the client-side time of every reference operation of the
	// window, in milliseconds; cpuS is the server's CPU time across them.
	lat  []float64
	cpuS float64
}

func startRef(ctx context.Context, dir string) (*refServer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p, err := startProc(self, []string{"serve-ref", "-addr", addr}, filepath.Join(dir, "ref.log"), true)
	if err != nil {
		return nil, err
	}
	ref := &refServer{p: p, c: newClient("http://" + addr)}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err = ref.op(0); err == nil {
			return ref, nil
		}
		if p.exited() || ctx.Err() != nil || time.Now().After(deadline) {
			ref.stop()
			return nil, fmt.Errorf("reference server not answering: %w\n%s", errors.Join(err, ctx.Err()), tailLog(filepath.Join(dir, "ref.log")))
		}
		time.Sleep(time.Millisecond)
	}
}

func (ref *refServer) stop() error {
	ref.c.close()
	return ref.p.stop(5 * time.Second)
}

// refBody is the fixed request body of every reference operation.
var refBody = func() refDoc {
	d := refDoc{ID: "ref", Labels: map[string]string{}, Values: make([]float64, 64)}
	for i := range d.Values {
		d.Values[i] = float64(i) / 64
	}
	for i := 0; i < 8; i++ {
		d.Labels["k"+strconv.Itoa(i)] = "label-" + strconv.Itoa(i)
	}
	return d
}()

// op sends one reference operation and checks every answer.
func (ref *refServer) op(i int) (time.Duration, error) {
	start := time.Now()
	body := refBody
	for k := 0; k < refRequests; k++ {
		body.Seq = i*refRequests + k
		raw, err := ref.c.do("POST", "/ref", "", body, http.StatusOK)
		if err != nil {
			return 0, err
		}
		var out refDoc
		if err := json.Unmarshal(raw, &out); err != nil {
			return 0, err
		}
		if out.Seq != body.Seq+1 || len(out.Values) != 2*len(body.Values) || len(out.Labels) != len(body.Labels) {
			return 0, fmt.Errorf("reference: wrong answer to request %d", body.Seq)
		}
	}
	return time.Since(start), nil
}

// loop runs reference operations, at least one, until the deadline and
// keeps their times, in milliseconds, in ref.lat.
func (ref *refServer) loop(ctx context.Context, until time.Time) error {
	for i := 0; i == 0 || time.Now().Before(until) && ctx.Err() == nil; i++ {
		d, err := ref.op(i)
		if err != nil {
			return err
		}
		ref.lat = append(ref.lat, float64(d)/float64(time.Millisecond))
	}
	return ctx.Err()
}

// warm runs reference operations until the deadline without keeping them.
func (ref *refServer) warm(ctx context.Context, until time.Time) error {
	err := ref.loop(ctx, until)
	ref.lat = ref.lat[:0]
	return err
}

// speed is how fast the machine ran the reference in the window against
// its nominal figures, each below 1 on a slow machine: by mean time, by
// median, by 99th percentile and by the server's CPU time per operation.
func (ref *refServer) speed() (avg, p50, p99, cpu float64) {
	return refNominalMS / mean(ref.lat), refNominalP50MS / quantile(ref.lat, 0.50),
		refNominalP99MS / quantile(ref.lat, 0.99), refNominalCPUMS / (1000 * ref.cpuS / float64(len(ref.lat)))
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
