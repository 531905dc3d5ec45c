package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSessionDecode feeds arbitrary bodies to POST /api/sessions and
// POST /api/sessions/{id}/bags on a Manager's API handler, which decode
// them strictly into a SessionConfig and a BagRequest. Nothing may panic
// and nothing may answer 5xx. A 201 must round-trip its config: GET
// returns the config the body asked for, defaults applied. The bag goes to
// the session the create made, or to a fresh valid one when the create
// was refused; a 202 must report as submitted the jobs the body asked for.
// The seeds are a valid create and bag, an unknown field, trailing data
// (another value, and a closing bracket or brace), a wrong type, and a
// cluster at the VM bound.
//
//	go test -run '^$' -fuzz '^FuzzSessionDecode$' -fuzztime 20s ./internal/serve
func FuzzSessionDecode(f *testing.F) {
	m := NewManager(1)
	f.Cleanup(m.Close)
	h := NewAPI(m).Handler()
	send := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	valid := marshal(createRequest{Name: "fuzz", Config: testConfig(1)})
	bag := marshal(BagRequest{App: "shapes", Jobs: 3, Seed: 1})
	atBound := testConfig(2)
	atBound.VMs = maxVMs
	f.Add(valid, bag)
	f.Add([]byte(`{"config":{"vm_type":"n1-highcpu-16","zone":"us-east1-b","vms":4,"seed":1,"model":{"a":0.45,"tau1":1,"tau2":0.8,"b":24,"l":24},"replicas":2}}`),
		[]byte(`{"app":"shapes","jobs":3,"priority":1}`))
	f.Add(append(append([]byte{}, valid...), `{"config":{}}`...), append(append([]byte{}, bag...), `[]`...))
	f.Add(append(append([]byte{}, valid...), ']'), append(append([]byte{}, bag...), '}'))
	f.Add(append(append([]byte{}, valid...), '}'), append(append([]byte{}, bag...), ']'))
	f.Add([]byte(`{"config":{"vm_type":"n1-highcpu-16","zone":"us-east1-b","vms":"4"}}`), []byte(`{"app":"shapes","jobs":"3"}`))
	f.Add(marshal(createRequest{Config: atBound}), bag)

	f.Fuzz(func(t *testing.T, create, bagBody []byte) {
		// A create and a bag allocate what they ask for, up to the size
		// bounds, and a fit recipe is fitted in the request; skip inputs
		// asking for more than a handful, so each input stays fast.
		var cr createRequest
		decodeErr := json.Unmarshal(create, &cr)
		if fit := cr.Config.withDefaults().Fit; fit != nil && fit.Samples > 200 {
			return
		}
		var br BagRequest
		bagErr := json.Unmarshal(bagBody, &br)
		if br.Jobs > 1000 {
			return
		}

		rec := send(http.MethodPost, "/api/sessions", create)
		if rec.Code >= 500 || rec.Code != http.StatusCreated && rec.Code < 400 {
			t.Fatalf("create answered %d, want 201 or a 4xx: %s", rec.Code, rec.Body)
		}
		var id string
		if rec.Code == http.StatusCreated {
			if decodeErr != nil {
				t.Fatalf("201 for a body that does not decode: %v", decodeErr)
			}
			var created SessionStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
				t.Fatalf("undecodable 201 answer %q: %v", rec.Body, err)
			}
			id = created.ID
			got := send(http.MethodGet, "/api/sessions/"+id, nil)
			var st SessionStatus
			if got.Code != http.StatusOK || json.Unmarshal(got.Body.Bytes(), &st) != nil {
				t.Fatalf("GET of created %s: %d %s", id, got.Code, got.Body)
			}
			if want, have := marshal(cr.Config.withDefaults()), marshal(st.Config); !bytes.Equal(want, have) {
				t.Fatalf("created %s serves config\n  %s\nwant\n  %s", id, have, want)
			}
		} else {
			s, err := m.Create("fallback", testConfig(3))
			if err != nil {
				t.Fatal(err)
			}
			id = s.ID()
		}
		// Keep the manager to one session at a time across inputs.
		defer func() {
			if err := m.Delete(id); err != nil {
				t.Fatal(err)
			}
		}()

		rec = send(http.MethodPost, "/api/sessions/"+id+"/bags", bagBody)
		if rec.Code >= 500 || rec.Code != http.StatusAccepted && rec.Code < 400 {
			t.Fatalf("bags answered %d, want 202 or a 4xx: %s", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		if bagErr != nil {
			t.Fatalf("202 for a bag that does not decode: %v", bagErr)
		}
		var out struct {
			Submitted int `json:"submitted"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("undecodable 202 answer %q: %v", rec.Body, err)
		}
		if out.Submitted != br.Jobs {
			t.Fatalf("bag of %d jobs answered submitted=%d", br.Jobs, out.Submitted)
		}
	})
}
