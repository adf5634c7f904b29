package confmask

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"
)

// outputDigest hashes an Anonymize result: every device name and its
// rendered configuration, in name order.
func outputDigest(out map[string]string) string {
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write([]byte(out[n]))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnonymizeOutputPinned pins the SHA-256 of the anonymized output for
// a few networks at seed 1 with the default options. The hashes were
// computed before the indexed Algorithm 2 repair and the per-prefix OSPF
// reuse landed, so a performance change that alters the output in any
// byte fails here, not only when two worker counts disagree. An
// intentional output change must update the hashes and say why.
func TestAnonymizeOutputPinned(t *testing.T) {
	pinned := []struct{ net, sha string }{
		{"Enterprise", "494f3786292502258a2f542d06cb47000116f3e4330f67880d77f3eb83ea2b88"},
		{"FatTree04", "1292df334ea74f95bdc3d760aa16c9e59a8a26c278fe71671a7392fb68594c58"},
		{"MultiRegion10x30", "d0913b3f2504fa7f90f60b7b81abc5ece3293682d0b8f323993ba607d11668f3"},
	}
	for _, tc := range pinned {
		tc := tc
		t.Run(tc.net, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Seed = 1
			out, _, err := Anonymize(exampleConfigs(t, tc.net), opts)
			if err != nil {
				t.Fatalf("Anonymize: %v", err)
			}
			if got := outputDigest(out); got != tc.sha {
				t.Errorf("output SHA-256 = %s, want %s", got, tc.sha)
			}
		})
	}
}
