package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/batch"
)

// Differential tests of the lifecycle's JSON codec (wirejson.go) against
// encoding/json: every appender writes json.Marshal's bytes, writeJSON
// writes Encoder.Encode's and writeSSE frames Marshal's, errors included;
// and the hand parser accepts only bodies the strict encoding/json decode
// accepts, into equal values.

// wireTypes are the types the codec encodes.
var wireTypes = []any{
	SessionStatus{}, batch.Report{}, batch.Progress{},
	bagsReply{}, runReply{}, deleteReply{}, shardCreateRequest{},
}

// wireFiller sets every exported field of a value from a handful of fuzz
// inputs, so a field added to one of the codec's types is covered without
// a change here. bits decide, field by field, which strings and numbers
// are set, which pointers are non-nil and how long slices are.
type wireFiller struct {
	s    string
	x    float64
	n    int64
	bits uint64
	k    uint
}

func (f *wireFiller) bit() bool {
	b := f.bits>>(f.k%64)&1 == 1
	f.k++
	return b
}

// float picks one of x, its neighbours in magnitude and the values whose
// encoding differs: signed zeros and the exponent-form cutoffs.
func (f *wireFiller) float() float64 {
	choice := 0
	for range 3 {
		choice <<= 1
		if f.bit() {
			choice |= 1
		}
	}
	return []float64{f.x, 0, math.Copysign(0, -1), 1e-7, 1e21, -f.x, f.x * 1e-9, f.x * 1e20}[choice]
}

func (f *wireFiller) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		if f.bit() {
			v.SetString(f.s)
		}
	case reflect.Float64:
		v.SetFloat(f.float())
	case reflect.Int, reflect.Int64:
		if f.bit() {
			v.SetInt(f.n)
		}
	case reflect.Uint64:
		if f.bit() {
			v.SetUint(uint64(f.n))
		}
	case reflect.Bool:
		v.SetBool(f.bit())
	case reflect.Pointer:
		if f.bit() {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem())
		}
	case reflect.Slice:
		if !f.bit() {
			return // nil
		}
		n := 0
		for range 2 {
			if f.bit() {
				n++
			}
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := range n {
			f.fill(v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("wire filler: no case for %s", v.Type()))
	}
}

// FuzzWireEncode fills each of the codec's types from the fuzz inputs and
// requires the codec's bytes, and its error on a NaN or an infinity, to be
// encoding/json's: appendWire against json.Marshal (after a prefix it must
// keep), writeJSON against Encoder.Encode, and writeSSE against the
// Marshal-framed event. The all-ones seed sets every field.
//
//	go test -run '^$' -fuzz '^FuzzWireEncode$' -fuzztime 20s ./internal/serve
func FuzzWireEncode(f *testing.F) {
	f.Add("s-001", 0.45, int64(4), ^uint64(0))
	f.Add("", 0.0, int64(0), uint64(0))
	f.Add("<a href=\"x\">&amp;</a>\\", 1e-7, int64(-1), uint64(0xaaaaaaaaaaaaaaaa))
	f.Add("line\u2028para\u2029\x00\x1f\b\f\n\r\t\x7f", 1e21, int64(1<<62), uint64(0x5555555555555555))
	f.Add("bad \xff\xfe utf-8 \xe2\x80 \u00e9 \u65e5\u672c", 123456789.125, int64(-1<<63), uint64(0x0f0f0f0f0f0f0f0f))
	f.Add("nan", math.NaN(), int64(7), ^uint64(0))
	f.Add("inf", math.Inf(-1), int64(7), uint64(0xf0f0f0f0f0f0f0f0))
	f.Add("tiny", 5e-324, int64(9), uint64(0x3333333333333333))
	f.Add("huge", math.MaxFloat64, int64(9), uint64(0xcccccccccccccccc))
	f.Fuzz(func(t *testing.T, s string, x float64, n int64, bits uint64) {
		for _, proto := range wireTypes {
			fl := &wireFiller{s: s, x: x, n: n, bits: bits}
			pv := reflect.New(reflect.TypeOf(proto)).Elem()
			fl.fill(pv)
			v := pv.Interface()

			want, wantErr := json.Marshal(v)
			got, ok, err := appendWire([]byte("prefix"), v)
			if !ok {
				t.Fatalf("%T: appendWire does not encode it", v)
			}
			switch {
			case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
				t.Fatalf("%T %+v: error %v, want %v", v, v, err, wantErr)
			case err != nil && string(got) != "prefix":
				t.Fatalf("%T: on error the buffer reads %q, want the prefix alone", v, got)
			case err == nil && string(got) != "prefix"+string(want):
				t.Fatalf("%T:\n got %s\nwant prefix%s", v, got, want)
			}

			var enc bytes.Buffer
			_ = json.NewEncoder(&enc).Encode(v)
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, v)
			if rec.Body.String() != enc.String() {
				t.Fatalf("%T: writeJSON wrote\n %q\nEncode writes\n %q", v, rec.Body, enc.String())
			}

			rec = httptest.NewRecorder()
			err = writeSSE(rec, "state", v)
			wantSSE := ""
			if wantErr == nil {
				wantSSE = "event: state\ndata: " + string(want) + "\n\n"
			}
			if (err == nil) != (wantErr == nil) || rec.Body.String() != wantSSE {
				t.Fatalf("%T: writeSSE wrote %q (error %v), want %q", v, rec.Body, err, wantSSE)
			}
		}
	})
}

// wireDecodeAgrees checks one body against one request type: a body
// parseWire takes must decode under encoding/json's strict decode to an
// equal value, a body it refuses must leave the value zero, and
// decodeStrict's verdict and value are always decodeJSON's.
func wireDecodeAgrees[T any](t *testing.T, body []byte) {
	t.Helper()
	var fast, std T
	parsed := parseWire(body, &fast)
	stdErr := decodeJSON(body, &std)
	if parsed && stdErr != nil {
		t.Fatalf("%T: parseWire took %q, which encoding/json refuses: %v", fast, body, stdErr)
	}
	if parsed && !reflect.DeepEqual(fast, std) {
		t.Fatalf("%T: %q parses as\n %+v\nencoding/json decodes\n %+v", fast, body, fast, std)
	}
	if !parsed && !reflect.DeepEqual(fast, *new(T)) {
		t.Fatalf("%T: refused %q but left %+v", fast, body, fast)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return
	}
	var strict T
	err := decodeStrict(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &strict)
	if fmt.Sprint(err) != fmt.Sprint(stdErr) || !reflect.DeepEqual(strict, std) {
		t.Fatalf("%T: decodeStrict(%q) = %+v, %v; decodeJSON = %+v, %v", strict, body, strict, err, std, stdErr)
	}
}

// FuzzWireDecode feeds one body to the hand parser and to encoding/json
// as a create, a bag and a shard create request (wireDecodeAgrees). The
// seeds are perfbench-shaped bodies and the shapes the parser leaves to
// encoding/json: case-folded keys, escapes, null, duplicate keys,
// out-of-range and non-integral numbers, and trailing data.
//
//	go test -run '^$' -fuzz '^FuzzWireDecode$' -fuzztime 20s ./internal/serve
func FuzzWireDecode(f *testing.F) {
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	ttl := 0.5
	full := SessionConfig{VMType: "n1-highcpu-8", Zone: "us-west1-a", VMs: 16, GangSize: 2,
		Policy: PolicyMemoryless, HotSpareTTL: &ttl, CheckpointDelta: 0.01, CheckpointStep: 1.0 / 60,
		WarningCheckpoint: true, ProgressEvery: 64, Seed: 1<<64 - 1, ModelRef: "m@v2",
		Model: &ModelParams{A: 0.45, Tau1: 1, Tau2: 0.8, B: 24, L: 24}, Fit: &FitSpec{Samples: 100, Seed: 3}}
	for _, body := range [][]byte{
		marshal(map[string]any{"config": testConfig(1)}),
		marshal(BagRequest{App: "nanoconfinement", Jobs: 20, Seed: 7}),
		marshal(shardCreateRequest{ID: "s-001", Name: "n", Config: testConfig(2), Params: &ModelParams{A: 1, Tau1: 2, Tau2: 3, B: 4, L: 5}}),
		marshal(createRequest{Name: "full", Config: full}),
		marshal(BagRequest{App: "shapes", Jobs: 3, Jitter: 1e-7, Seed: 9, At: 1e21}),
		[]byte(" {\n\t\"app\" : \"shapes\" ,\r\"jobs\" : 3 } \n"),
		[]byte(`{}`),
		[]byte(``),
		[]byte(" \t"),
		[]byte(`{"Config":{"vm_type":"n1-highcpu-16"}}`),
		[]byte(`{"APP":"shapes","Jobs":3}`),
		[]byte(`{"name":"a\u0041b","config":{}}`),
		[]byte(`{"app":"\"<\\/>"}`),
		[]byte(`{"config":{"model":null}}`),
		[]byte(`{"name":null}`),
		[]byte(`{"jobs":null}`),
		[]byte(`{"app":"a","app":"b","jobs":1}`),
		[]byte(`{"config":{"vms":1},"config":{"zone":"z"}}`),
		[]byte(`{"config":{"model":{"a":1,"b":2},"model":{"a":3}}}`),
		[]byte(`{"jobs":9223372036854775807}`),
		[]byte(`{"jobs":9223372036854775808}`),
		[]byte(`{"jobs":-9223372036854775809}`),
		[]byte(`{"seed":-1}`),
		[]byte(`{"seed":-0}`),
		[]byte(`{"seed":18446744073709551616}`),
		[]byte(`{"jobs":1e2}`),
		[]byte(`{"jobs":1.0}`),
		[]byte(`{"jobs":01}`),
		[]byte(`{"jitter":1e400}`),
		[]byte(`{"jitter":-1e-400}`),
		[]byte(`{"jitter":.5}`),
		[]byte(`{"app":"\xff"}`),
		[]byte("{\"app\":\"tab\there\"}"),
		[]byte(`{"config":{"warning_checkpoint":"true"}}`),
		[]byte(`{"config":{"warning_checkpoint":tru}}`),
		[]byte(`{"id":"s-001","params":{"a":1,"a":2}}`),
		[]byte(`{"config":{"fit":{"samples":10,"seed":2,"extra":1}}}`),
		[]byte(`{"app":"shapes","jobs":3}]`),
		[]byte(`{"app":"shapes","jobs":3}}`),
		[]byte(`{"app":"shapes","jobs":3} x`),
		[]byte(`{"app":"shapes","jobs":3}{}`),
		[]byte(`{"app":"shapes","jobs":3}` + "\f"),
		[]byte(`[]`),
		[]byte(`"str"`),
		[]byte(`{"app":"shapes",}`),
		[]byte(`{"app" "shapes"}`),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		wireDecodeAgrees[createRequest](t, body)
		wireDecodeAgrees[BagRequest](t, body)
		wireDecodeAgrees[shardCreateRequest](t, body)
	})
}

// TestWireAllocs pins the codec's allocations: an appender writing into a
// buffer with room allocates nothing, and a parse allocates its strings
// and pointers (the perfbench-shaped create: vm_type, zone and the model;
// the bag: its app).
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ttl := 1.0
	cfg := testConfig(1)
	cfg.HotSpareTTL = &ttl
	progress := batch.Progress{VirtualHours: 1.5, JobsDone: 3, JobsTotal: 20, CostSoFar: 0.25,
		Classes: []batch.ClassProgress{{App: "shapes", JobsTotal: 20, JobsDone: 3, RemainingHours: 2}}}
	buf := make([]byte, 0, 4096)
	for _, v := range []any{
		SessionStatus{ID: "s-001", State: StateRunning, JobsSubmitted: 20, Config: cfg, Progress: &progress, TraceID: "t-1"},
		batch.Report{JobsCompleted: 20, TotalCost: 1.25, CostPerJob: 0.0625, Makespan: 3.5, IdealMakespan: 3, IncreasePct: 16.6, MeanAttempts: 1.1},
		progress,
		bagsReply{MeanRuntime: 0.15, Submitted: 20},
		runReply{ID: "s-001", State: StateRunning},
		deleteReply{Deleted: "s-001"},
		shardCreateRequest{ID: "s-001", Config: cfg, Params: cfg.Model},
	} {
		if allocs := testing.AllocsPerRun(100, func() { _, _, _ = appendWire(buf[:0], v) }); allocs != 0 {
			t.Errorf("appending %T: %.0f allocations, want 0", v, allocs)
		}
	}

	create, _ := json.Marshal(map[string]any{"config": testConfig(1)})
	bag, _ := json.Marshal(BagRequest{App: "nanoconfinement", Jobs: 20, Seed: 7})
	shardCreate, _ := json.Marshal(shardCreateRequest{ID: "s-001", Config: testConfig(1), Params: testConfig(1).Model})
	for _, c := range []struct {
		body []byte
		v    func() any
		want float64
	}{
		{create, func() any { return new(createRequest) }, 3},
		{bag, func() any { return new(BagRequest) }, 1},
		{shardCreate, func() any { return new(shardCreateRequest) }, 5},
	} {
		v := c.v()
		allocs := testing.AllocsPerRun(100, func() {
			if !parseWire(c.body, v) {
				t.Fatalf("parseWire refused %s", c.body)
			}
		})
		if allocs != c.want {
			t.Errorf("parsing %s into %T: %.0f allocations, want %.0f", c.body, v, allocs, c.want)
		}
	}
}
