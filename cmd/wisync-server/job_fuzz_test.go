package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobDecode drives arbitrary bytes through the live /sweep decode path
// (unknown fields rejected) and job expansion. Every input must end in an
// error or in points that re-validate and whose cache keys are their own
// digests; no input may panic. The seed corpus in testdata/fuzz covers the
// golden job, a lossy job, a fault-plan job and a job naming the retired
// "shards" field.
func FuzzJobDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var j job
		if err := dec.Decode(&j); err != nil {
			return
		}
		specs, keys, err := j.expand(64)
		if err != nil {
			return
		}
		if len(specs) != len(keys) {
			t.Fatalf("%d specs but %d keys", len(specs), len(keys))
		}
		for i, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("expanded point %s does not re-validate: %v", s.ID(), err)
			}
			d, err := s.Digest()
			if err != nil {
				t.Fatalf("expanded point %s does not digest: %v", s.ID(), err)
			}
			if d != keys[i].Digest {
				t.Fatalf("point %s: cache key %s, digest %s", s.ID(), keys[i].Digest, d)
			}
		}
	})
}
