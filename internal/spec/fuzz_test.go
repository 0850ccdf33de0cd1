package spec

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRunSpec feeds arbitrary bytes to Decode, the front door of the
// CLIs' -spec files and the server's /run and /trace bodies. Whatever
// the input, Decode must not panic; a spec it accepts must have a Key,
// be a fixed point of Normalize, and re-decode from its canonical bytes
// to the same Key — the canonical encoding is the cache address.
func FuzzRunSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"experiments","experiments":"quick","quick":true}`,
		`{"kind":"scalescan","workload":"jacobi","asymSizes":[100,1000]}`,
		`{"kind":"faultscan","workload":"mm","p":4,"n":100,"faults":{"seed":3,"stragglerFrac":0.5,"stragglerFactor":2},"recover":true,"ckptInterval":8}`,
		`{"kind":"jobstream","engine":"des","policies":["sjf","fcfs"],"sharedP":8}`,
		`{"kind":"jobstream","retry":{}}`,
		`{"kind":"jobstream","engine":"symbolic",
		  "nodeFaults":{"seed":5,"failures":6,"meanUpMS":300,"meanDownMS":200},
		  "admission":{"maxQueue":4,"maxWaitMS":3000},
		  "membership":{"events":[{"node":0,"atMS":250,"op":"drain"},{"node":0,"atMS":900,"op":"join"}]},
		  "autoscale":{"targetEs":0.1,"band":0.02,"windowMS":200,"minP":2,"maxP":5,"startP":2}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		key, err := rs.Key()
		if err != nil {
			t.Fatalf("decoded spec has no key: %v", err)
		}
		again := *rs
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalizing a decoded spec errored: %v", err)
		}
		if !reflect.DeepEqual(*rs, again) {
			t.Fatalf("Normalize is not idempotent:\n once  %+v\n twice %+v", *rs, again)
		}
		canon, err := rs.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
		}
		if k, err := back.Key(); err != nil || k != key {
			t.Fatalf("canonical bytes re-decode to key %s (%v), want %s\n%s", k, err, key, canon)
		}
	})
}
