package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/batch"
)

// This file is the session lifecycle's JSON codec ("Wire JSON" in
// doc.go). It writes the lifecycle's replies straight into bytes, exactly
// the bytes encoding/json writes for them, and parses the lifecycle's
// request bodies by hand when they are canonical, leaving every other
// body, and every other type, to encoding/json.

// wireBufs holds the buffers replies are encoded into before their one
// Write.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// maxPooledWire is the largest buffer returned to wireBufs.
const maxPooledWire = 64 << 10

// putWireBuf returns bp to wireBufs holding b, its grown contents.
func putWireBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledWire {
		*bp = b
		wireBufs.Put(bp)
	}
}

// appendJSON appends v as json.Marshal encodes it. The lifecycle's types
// are written by the codec; any other goes through json.Marshal. On an
// error (a NaN or an infinity) it returns b unchanged and json.Marshal's
// error.
func appendJSON(b []byte, v any) ([]byte, error) {
	out, ok, err := appendWire(b, v)
	if ok {
		return out, err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, raw...), nil
}

// appendWire appends v as json.Marshal encodes it when v is one of the
// types the codec writes, and reports ok false for any other type.
func appendWire(b []byte, v any) (_ []byte, ok bool, err error) {
	e := wireEnc{b: b}
	switch v := v.(type) {
	case SessionStatus:
		e.sessionStatus(&v)
	case batch.Report:
		e.report(&v)
	case batch.Progress:
		e.progress(&v)
	case bagsReply:
		e.floatField(`{"mean_runtime":`, v.MeanRuntime)
		e.intField(`,"submitted":`, v.Submitted)
		e.raw(`}`)
	case runReply:
		e.strField(`{"id":`, v.ID)
		e.strField(`,"state":`, string(v.State))
		e.raw(`}`)
	case deleteReply:
		e.strField(`{"deleted":`, v.Deleted)
		e.raw(`}`)
	case shardCreateRequest:
		e.shardCreateRequest(&v)
	default:
		return b, false, nil
	}
	if e.err != nil {
		return b, true, e.err
	}
	return e.b, true, nil
}

// wireEnc appends one value's JSON to b. Every struct it writes has a
// first field without omitempty, so each field method is handed its key
// with the brace or comma before it.
type wireEnc struct {
	b   []byte
	err error // the first NaN or infinity met
}

func (e *wireEnc) raw(s string) { e.b = append(e.b, s...) }

func (e *wireEnc) strField(key, s string) {
	e.raw(key)
	e.b = appendJSONString(e.b, s)
}

func (e *wireEnc) intField(key string, n int) {
	e.raw(key)
	e.b = strconv.AppendInt(e.b, int64(n), 10)
}

func (e *wireEnc) uintField(key string, n uint64) {
	e.raw(key)
	e.b = strconv.AppendUint(e.b, n, 10)
}

func (e *wireEnc) floatField(key string, f float64) {
	e.raw(key)
	e.float(f)
}

// float writes f as encoding/json does: ES6 number form, an exponent only
// outside [1e-6, 1e21), without a padded exponent. A NaN or an infinity
// is json.Marshal's UnsupportedValueError.
func (e *wireEnc) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	e.b = b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes it, HTML
// escaping on: <, > and & as \u escapes, control bytes escaped, each
// byte of invalid UTF-8 as an escaped U+FFFD, and U+2028 and U+2029
// escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

func (e *wireEnc) sessionStatus(s *SessionStatus) {
	e.strField(`{"id":`, s.ID)
	if s.Name != "" {
		e.strField(`,"name":`, s.Name)
	}
	e.strField(`,"state":`, string(s.State))
	e.intField(`,"jobs_submitted":`, s.JobsSubmitted)
	e.raw(`,"config":`)
	e.sessionConfig(&s.Config)
	if s.Progress != nil {
		e.raw(`,"progress":`)
		e.progress(s.Progress)
	}
	if s.Error != "" {
		e.strField(`,"error":`, s.Error)
	}
	if s.Restored {
		e.raw(`,"restored":true`)
	}
	if s.Unpersisted {
		e.raw(`,"unpersisted":true`)
	}
	if s.TraceID != "" {
		e.strField(`,"trace_id":`, s.TraceID)
	}
	e.raw(`}`)
}

func (e *wireEnc) sessionConfig(c *SessionConfig) {
	e.strField(`{"vm_type":`, c.VMType)
	e.strField(`,"zone":`, c.Zone)
	e.intField(`,"vms":`, c.VMs)
	if c.GangSize != 0 {
		e.intField(`,"gang_size":`, c.GangSize)
	}
	if c.Policy != "" {
		e.strField(`,"policy":`, c.Policy)
	}
	if c.HotSpareTTL != nil {
		e.floatField(`,"hot_spare_ttl":`, *c.HotSpareTTL)
	}
	if c.CheckpointDelta != 0 {
		e.floatField(`,"checkpoint_delta":`, c.CheckpointDelta)
	}
	if c.CheckpointStep != 0 {
		e.floatField(`,"checkpoint_step":`, c.CheckpointStep)
	}
	if c.WarningCheckpoint {
		e.raw(`,"warning_checkpoint":true`)
	}
	if c.ProgressEvery != 0 {
		e.intField(`,"progress_every":`, c.ProgressEvery)
	}
	e.uintField(`,"seed":`, c.Seed)
	if c.Model != nil {
		e.raw(`,"model":`)
		e.modelParams(c.Model)
	}
	if c.Fit != nil {
		e.intField(`,"fit":{"samples":`, c.Fit.Samples)
		e.uintField(`,"seed":`, c.Fit.Seed)
		e.raw(`}`)
	}
	if c.ModelRef != "" {
		e.strField(`,"model_ref":`, c.ModelRef)
	}
	e.raw(`}`)
}

func (e *wireEnc) modelParams(p *ModelParams) {
	e.floatField(`{"a":`, p.A)
	e.floatField(`,"tau1":`, p.Tau1)
	e.floatField(`,"tau2":`, p.Tau2)
	e.floatField(`,"b":`, p.B)
	e.floatField(`,"l":`, p.L)
	e.raw(`}`)
}

func (e *wireEnc) progress(p *batch.Progress) {
	e.floatField(`{"virtual_hours":`, p.VirtualHours)
	e.intField(`,"jobs_done":`, p.JobsDone)
	e.intField(`,"jobs_total":`, p.JobsTotal)
	e.floatField(`,"cost_so_far_usd":`, p.CostSoFar)
	e.intField(`,"preemptions":`, p.Preemptions)
	e.intField(`,"active_gangs":`, p.ActiveGangs)
	e.raw(`,"engine_steps":`)
	e.b = strconv.AppendInt(e.b, p.EngineSteps, 10)
	for i := range p.Classes {
		c := &p.Classes[i]
		if i == 0 {
			e.raw(`,"classes":[`)
		} else {
			e.raw(`,`)
		}
		e.strField(`{"app":`, c.App)
		e.intField(`,"jobs_total":`, c.JobsTotal)
		e.intField(`,"jobs_done":`, c.JobsDone)
		e.intField(`,"attempts":`, c.Attempts)
		e.intField(`,"failures":`, c.Failures)
		e.floatField(`,"remaining_hours":`, c.RemainingHours)
		e.raw(`}`)
	}
	if len(p.Classes) > 0 {
		e.raw(`]`)
	}
	e.raw(`}`)
}

func (e *wireEnc) report(r *batch.Report) {
	e.intField(`{"jobs_completed":`, r.JobsCompleted)
	e.intField(`,"job_failures":`, r.JobFailures)
	e.intField(`,"preemptions":`, r.Preemptions)
	e.floatField(`,"total_cost_usd":`, r.TotalCost)
	e.floatField(`,"cost_per_job":`, r.CostPerJob)
	e.floatField(`,"makespan_hours":`, r.Makespan)
	e.floatField(`,"ideal_makespan":`, r.IdealMakespan)
	e.floatField(`,"increase_pct":`, r.IncreasePct)
	e.floatField(`,"mean_attempts":`, r.MeanAttempts)
	if r.TraceID != "" {
		e.strField(`,"trace_id":`, r.TraceID)
	}
	e.raw(`}`)
}

func (e *wireEnc) shardCreateRequest(r *shardCreateRequest) {
	e.strField(`{"id":`, r.ID)
	if r.Name != "" {
		e.strField(`,"name":`, r.Name)
	}
	e.raw(`,"config":`)
	e.sessionConfig(&r.Config)
	if r.Params != nil {
		e.raw(`,"params":`)
		e.modelParams(r.Params)
	}
	e.raw(`}`)
}

// parseWire parses body into v by hand when v is a create, bag or shard
// create request and body is canonical: one object whose keys are its
// fields' exact tags, none twice, strings without escapes or control
// bytes in valid UTF-8, no null, numbers their Go field holds, and
// nothing after the object but whitespace. Whatever it parses is what
// encoding/json's strict decode makes of the same body. Otherwise it
// leaves v zero and reports false: the body is encoding/json's to decide.
func parseWire(body []byte, v any) bool {
	s := &wireScan{b: body}
	switch v := v.(type) {
	case *createRequest:
		if s.createRequest(v) && s.end() {
			return true
		}
		*v = createRequest{}
	case *BagRequest:
		if s.bagRequest(v) && s.end() {
			return true
		}
		*v = BagRequest{}
	case *shardCreateRequest:
		if s.shardCreateRequest(v) && s.end() {
			return true
		}
		*v = shardCreateRequest{}
	}
	return false
}

// wireScan reads a canonical JSON body; each method reports false on
// anything it is not sure of.
type wireScan struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *wireScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c, after whitespace.
func (s *wireScan) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (s *wireScan) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// object reads an object, calling field with each key and the scanner
// at its value; field reads the value. Keys may not repeat.
func (s *wireScan) object(field func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var keys [16][]byte // no type here has more fields
	for n := 0; ; n++ {
		key, ok := s.rawString()
		if !ok || n == len(keys) || !s.next(':') {
			return false
		}
		for _, k := range keys[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		keys[n] = key
		if !field(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// rawString reads a string with no escapes and no control bytes, in
// valid UTF-8, and returns its contents.
func (s *wireScan) rawString() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			str := s.b[start:s.i]
			s.i++
			return str, utf8.Valid(str)
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

func (s *wireScan) string(dst *string) bool {
	str, ok := s.rawString()
	if ok {
		*dst = string(str)
	}
	return ok
}

// number reads a number as JSON's grammar spells it; integral reports
// whether it has no fraction and no exponent.
func (s *wireScan) number() (lit []byte, integral, ok bool) {
	s.ws()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		integral = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		integral = false
	}
	s.i = i
	return b[start:i], integral, true
}

func (s *wireScan) int(dst *int) bool {
	lit, integral, ok := s.number()
	if !ok || !integral {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	*dst = int(n)
	return err == nil
}

func (s *wireScan) uint64(dst *uint64) bool {
	lit, integral, ok := s.number()
	if !ok || !integral || lit[0] == '-' {
		return false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*dst = n
	return err == nil
}

func (s *wireScan) float(dst *float64) bool {
	lit, _, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (s *wireScan) bool(dst *bool) bool {
	s.ws()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.i = true, s.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.i = false, s.i+5
	default:
		return false
	}
	return true
}

func (s *wireScan) createRequest(r *createRequest) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return s.string(&r.Name)
		case "config":
			return s.sessionConfig(&r.Config)
		}
		return false
	})
}

func (s *wireScan) shardCreateRequest(r *shardCreateRequest) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return s.string(&r.ID)
		case "name":
			return s.string(&r.Name)
		case "config":
			return s.sessionConfig(&r.Config)
		case "params":
			r.Params = new(ModelParams)
			return s.modelParams(r.Params)
		}
		return false
	})
}

func (s *wireScan) bagRequest(r *BagRequest) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "app":
			return s.string(&r.App)
		case "jobs":
			return s.int(&r.Jobs)
		case "jitter":
			return s.float(&r.Jitter)
		case "seed":
			return s.uint64(&r.Seed)
		case "at":
			return s.float(&r.At)
		}
		return false
	})
}

func (s *wireScan) sessionConfig(c *SessionConfig) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "vm_type":
			return s.string(&c.VMType)
		case "zone":
			return s.string(&c.Zone)
		case "vms":
			return s.int(&c.VMs)
		case "gang_size":
			return s.int(&c.GangSize)
		case "policy":
			return s.string(&c.Policy)
		case "hot_spare_ttl":
			c.HotSpareTTL = new(float64)
			return s.float(c.HotSpareTTL)
		case "checkpoint_delta":
			return s.float(&c.CheckpointDelta)
		case "checkpoint_step":
			return s.float(&c.CheckpointStep)
		case "warning_checkpoint":
			return s.bool(&c.WarningCheckpoint)
		case "progress_every":
			return s.int(&c.ProgressEvery)
		case "seed":
			return s.uint64(&c.Seed)
		case "model":
			c.Model = new(ModelParams)
			return s.modelParams(c.Model)
		case "fit":
			c.Fit = new(FitSpec)
			return s.object(func(key []byte) bool {
				switch string(key) {
				case "samples":
					return s.int(&c.Fit.Samples)
				case "seed":
					return s.uint64(&c.Fit.Seed)
				}
				return false
			})
		case "model_ref":
			return s.string(&c.ModelRef)
		}
		return false
	})
}

func (s *wireScan) modelParams(p *ModelParams) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "a":
			return s.float(&p.A)
		case "tau1":
			return s.float(&p.Tau1)
		case "tau2":
			return s.float(&p.Tau2)
		case "b":
			return s.float(&p.B)
		case "l":
			return s.float(&p.L)
		}
		return false
	})
}
