package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRunRequest feeds arbitrary bytes through the /run handler's decoder
// settings and then through everything the handler does before it
// simulates: validate, key and resolve. Nothing may panic. A request that
// resolves must key the same on a second call and after a JSON round
// trip, or the response cache would miss equal requests.
func FuzzRunRequest(f *testing.F) {
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{"name":"fig3"}`,
		`{"name":"fig3","cells":[{"label":"2xlarge","cores":16}]}`,
		fmt.Sprintf(`{"scenario":%s}`, inlineSpec),
		`{"name":"fig7","reps":3,"seed":9,"recommend":{"cores":4}}`,
	} {
		f.Add([]byte(body))
	}
	s := NewServer(Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(body)
		if err != nil || req.validate() != nil {
			return
		}
		k := req.key(s.cfg.Quick, s.cfg.Reps, s.cfg.Seed)
		if _, err := s.resolve(req); err != nil {
			return
		}
		if again := req.key(s.cfg.Quick, s.cfg.Reps, s.cfg.Seed); again != k {
			t.Fatalf("key changed between calls: %x then %x", k, again)
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("resolved request does not marshal: %v", err)
		}
		rt, err := decodeRunRequest(data)
		if err != nil {
			t.Fatalf("round trip %s does not decode: %v", data, err)
		}
		if got := rt.key(s.cfg.Quick, s.cfg.Reps, s.cfg.Seed); got != k {
			t.Fatalf("round trip changed the key: %x, want %x\nbody %q\nround trip %s", got, k, body, data)
		}
	})
}

// decodeRunRequest decodes body as handleRun does: at most maxRunBody
// bytes, unknown fields rejected.
func decodeRunRequest(body []byte) (RunRequest, error) {
	r := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), r.Body, maxRunBody))
	dec.DisallowUnknownFields()
	var req RunRequest
	err := dec.Decode(&req)
	return req, err
}
