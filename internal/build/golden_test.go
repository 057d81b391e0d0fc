package build

import (
	"context"
	"encoding/hex"
	"fmt"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/workload"
)

// goldenFingerprints pins the published bytes of four reference
// builds: workload.Lines n = 400, seed 1, the deterministic test key,
// WithShuffle(1), in both signing modes, unsharded and over two even
// shards (one fingerprint per shard). The values were taken from the
// insert-path build — every intersection inserted from the root of the
// I-tree — so they hold any faster construction to the bytes of that
// literal one, which the self-consistency tests (incremental vs full,
// worker count, process count) cannot do.
var goldenFingerprints = map[string][]string{
	"one-signature/shards=0": {
		"8e2af243802b9360b1abdb284f3c8ac51dd74d6f9e3aace019cc54983d5d5552",
	},
	"one-signature/shards=2": {
		"f9267d0c8babb7f3f1da178135f7d0c671a2cd0b016bee17994db11093a536b9",
		"52419cde536189543673171acafe8716c11b3932c2ea78da0f300887fde9976c",
	},
	"multi-signature/shards=0": {
		"6d57fa0888f35421254aeaf30d360365080731241ef8f33824444e5583746ffd",
	},
	"multi-signature/shards=2": {
		"183b91bbd717867db70e03f6590a098cf1b03fe254d901292b9e1e7e9b595aa7",
		"edc592b11cec53594d08f8d1937c3282f5143694e469703bdea5f8d0292a679d",
	},
}

func TestGoldenFingerprints(t *testing.T) {
	spec := testSpec(t, 400, 1, workload.Gaussian)
	for _, mode := range []core.Mode{core.OneSignature, core.MultiSignature} {
		for _, shards := range []int{0, 2} {
			name := fmt.Sprintf("%v/shards=%d", mode, shards)
			opts := []Option{WithMode(mode), WithShuffle(1)}
			if shards > 0 {
				opts = append(opts, WithShards(shards, 0))
			}
			r, err := Outsource(context.Background(), spec, opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got []string
			for _, tr := range treesOf(t, r) {
				fp := tr.Fingerprint()
				got = append(got, hex.EncodeToString(fp[:]))
			}
			want := goldenFingerprints[name]
			if len(got) != len(want) {
				t.Errorf("%s: %d trees, want %d", name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: tree %d fingerprint %s, want %s", name, i, got[i], want[i])
				}
			}
		}
	}
}
