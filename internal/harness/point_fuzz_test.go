package harness

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzPointSpec drives arbitrary JSON through PointSpec decoding and
// validation without running any simulation. No input may panic, and for
// every spec that validates, Normalize is idempotent, normalizing does not
// move the digest, and a JSON round trip of the normalized spec keeps it.
// The seed corpus in testdata/fuzz covers a golden tightloop point, a
// burst-channel application, a fault plan, the liv2 alias and a spec
// naming the retired "shards" field.
func FuzzPointSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var s PointSpec
		if err := json.Unmarshal(body, &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		d, err := s.Digest()
		if err != nil {
			t.Fatalf("valid spec does not digest: %v", err)
		}
		n, err := s.Normalize()
		if err != nil {
			t.Fatalf("valid spec does not normalize: %v", err)
		}
		again, err := n.Normalize()
		if err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize not idempotent:\nonce:  %+v\ntwice: %+v (%v)", n, again, err)
		}
		if nd, err := n.Digest(); err != nil || nd != d {
			t.Fatalf("normalizing moved the digest: %s -> %s (%v)", d, nd, err)
		}
		b, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("normalized spec does not marshal: %v", err)
		}
		var back PointSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("normalized spec %s does not decode: %v", b, err)
		}
		if bd, err := back.Digest(); err != nil || bd != d {
			t.Fatalf("JSON round trip %s moved the digest: %s -> %s (%v)", b, d, bd, err)
		}
	})
}
