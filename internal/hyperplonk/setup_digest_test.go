package hyperplonk_test

import (
	"encoding/hex"
	"testing"

	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/workload"
)

// setupDigests pins everything the cold-start path derives, captured on
// the tree before the ceremony moved to the generator window table and
// the layer fold, key preprocessing to pair-reduced bucket conflicts, and
// the transcript to the unrolled Keccak: the circuit and witness digests
// (cache keys of the engine, the service and the WAL), and per scheme the
// SRS digest (the identity of the commit basis) and the verifying-key digest
// (bound into every proof). None of those changes may move a byte, or
// caches, replayed job stores and proofs from before and after stop being
// interchangeable.
var setupDigests = map[int]struct {
	circuit, witness     string
	pstSRS, pstVK        string
	zeromorphSRS, zeroVK string
}{
	2: {
		"534883a0c3290270f57764c926591a2f863dbe298d382d8797a8986ad5873e98", "3ca5a5e63aeb3839690604d3e47ce09fa43acd84a413e5093d0930496c2d22a5",
		"f88ce1dcaa7bc2477242b8143204dc62bfa1e9702d88f2742050af4928f7c657", "410100b8d97885983fe5a7e05b662b36f9529ae135c81d0f22a7c98c90eec90e",
		"0d518a4d754a39f53feac25239eb2c5cce33b96b29b44d92bd696f8d85115b22", "2ef587d79a65b79bf1b0fd8e3c67502a984c93802f464e534aabfabebd993924",
	},
	5: {
		"18ce179d87b6bd87b67f5bbe9d1474e5d8f26337da4ba730ec1cda636861e829", "295965b10a2ddee74208b159b7a00ce3b2867b1e71c3ffabf06b9c0b5067ea42",
		"c6df6d338d48662921a241ed2695798c5a83a1a2cacfabba0a19c8f4d2d76ef5", "1a08cb63845d324c1e45bc6dace41d00c0d231e95b6a34d427c4e8c66e736ce0",
		"8fa320627f7f85aaa267907358a81f2be88267d50a560054d05381cb2a54bd7e", "232a0664e5c4d77914d6e35573140d2eb048fb836f3ff4a746aa619293608223",
	},
	8: {
		"40d47aa7f254ffdef83dfd7cc6d9ec0de7b19a1f6ad8d97ecd390ab09880792e", "6d565f00f5f34be88ffe864ff67022104e85275fba2d4b8969917dc20771ba48",
		"228eb9ff6031cdd86647fda8bb091278b70031a9af5eed2fec7e4bc22a476f0e", "33d4217ef1f6e4dba6261267aeae1c863553477540861568e0660c72c86a805c",
		"0c505e0be62068cf08142aba3b56801b2737c988f09ea34e3a3c5a0abb5a72b8", "3b17613eabaf1fd0753515640ceec6dc1b4174c07d30d50722570d84103c5edf",
	},
	// μ=11 is the first size whose ceremony spans more than one kernel chunk.
	11: {
		"5240ee009b72881579c9f31fc55f7472f4403452561b0f3dd9a01bcf85e5be1c", "568ba323a588765b1a056f5809857b0bdbb9829ad65eefa88afdce9418c53ca4",
		"021d8654fb7b8d6477e194868f100562e2a32c8941dea609cedbc5569c7528c6", "1802d8f4e4a47709bfd1c032107b42af837b608e74bc5c65922f4a91ca904b99",
		"7791f2c173948f7863d18040027c3ccfd4e69d72d45a2feed0c720e55172f5ea", "0c0391493d7e7ef47fe68c42a0ef988a015c698de7914918fc4d7a3b6cef81ef",
	},
}

func TestSetupDigestsPinned(t *testing.T) {
	const seed = 7
	for mu, want := range setupDigests {
		circuit, assignment, _, err := workload.SyntheticSeed(mu, seed)
		if err != nil {
			t.Fatalf("mu=%d: workload: %v", mu, err)
		}
		check := func(what string, got []byte, want string) {
			if hex.EncodeToString(got) != want {
				t.Errorf("mu=%d: %s digest changed: %x, want %s", mu, what, got, want)
			}
		}
		cd, wd := circuit.Digest(), assignment.Digest()
		check("circuit", cd[:], want.circuit)
		check("witness", wd[:], want.witness)
		for _, s := range []struct {
			scheme  pcs.Scheme
			srs, vk string
		}{
			{pcs.SchemePST, want.pstSRS, want.pstVK},
			{pcs.SchemeZeromorph, want.zeromorphSRS, want.zeroVK},
		} {
			backend, err := pcs.NewBackend(s.scheme, []byte{0xd1, byte(mu)}, circuit.Mu)
			if err != nil {
				t.Fatalf("mu=%d %v: %v", mu, s.scheme, err)
			}
			sd := backend.Digest()
			check(s.scheme.String()+" SRS", sd[:], s.srs)
			_, vk, err := hyperplonk.SetupWithPCS(circuit, backend)
			if err != nil {
				t.Fatalf("mu=%d %v: setup: %v", mu, s.scheme, err)
			}
			check(s.scheme.String()+" verifying-key", vk.Digest(), s.vk)
		}
	}
}
