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
// interchangeable. The verifying-key digests were re-pinned once, when
// the key began binding its scheme and its SRS digest.
var setupDigests = map[int]struct {
	circuit, witness     string
	pstSRS, pstVK        string
	zeromorphSRS, zeroVK string
}{
	2: {
		"534883a0c3290270f57764c926591a2f863dbe298d382d8797a8986ad5873e98", "3ca5a5e63aeb3839690604d3e47ce09fa43acd84a413e5093d0930496c2d22a5",
		"f88ce1dcaa7bc2477242b8143204dc62bfa1e9702d88f2742050af4928f7c657", "2512d0fecb07ce07156c0769142a83be960d0f59d0f0bb29dbd6fb148dde72c7",
		"0d518a4d754a39f53feac25239eb2c5cce33b96b29b44d92bd696f8d85115b22", "7274b75a1512aeb9bb05da20f5edc1cb2b75b7f4aa098b159f3d1247eab92f21",
	},
	5: {
		"18ce179d87b6bd87b67f5bbe9d1474e5d8f26337da4ba730ec1cda636861e829", "295965b10a2ddee74208b159b7a00ce3b2867b1e71c3ffabf06b9c0b5067ea42",
		"c6df6d338d48662921a241ed2695798c5a83a1a2cacfabba0a19c8f4d2d76ef5", "31527b85dd5c1160df40345c95ca9618601a18edd65a383bf880e06fdd7d7ebc",
		"8fa320627f7f85aaa267907358a81f2be88267d50a560054d05381cb2a54bd7e", "6612dc741b966bf677d42986cb5935614f606127d03d76d5670d0ff65413df05",
	},
	8: {
		"40d47aa7f254ffdef83dfd7cc6d9ec0de7b19a1f6ad8d97ecd390ab09880792e", "6d565f00f5f34be88ffe864ff67022104e85275fba2d4b8969917dc20771ba48",
		"228eb9ff6031cdd86647fda8bb091278b70031a9af5eed2fec7e4bc22a476f0e", "151f2f0f0d11db6e7e2b577737505574002e76644bcc69f98a3512eb77fc8a42",
		"0c505e0be62068cf08142aba3b56801b2737c988f09ea34e3a3c5a0abb5a72b8", "36425c092652714c9d69407ac920173d9cced82b728e6a81131810402a9bc354",
	},
	// μ=11 is the first size whose ceremony spans more than one kernel chunk.
	11: {
		"5240ee009b72881579c9f31fc55f7472f4403452561b0f3dd9a01bcf85e5be1c", "568ba323a588765b1a056f5809857b0bdbb9829ad65eefa88afdce9418c53ca4",
		"021d8654fb7b8d6477e194868f100562e2a32c8941dea609cedbc5569c7528c6", "2a338861d969584fd605988848ed04aaf5698f25387becc7cc676b69992fd86d",
		"7791f2c173948f7863d18040027c3ccfd4e69d72d45a2feed0c720e55172f5ea", "20722d2c6509bd36b8b40843530ec07b02bf6f6e8a93c3d8db977db52811a4be",
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
