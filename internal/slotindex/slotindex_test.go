package slotindex

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// slab is a test caller: keys by slot, a free list, and the hash in use.
type slab struct {
	keys []string
	free []int32
	hash func(string) uint32
	x    Index
}

func (s *slab) hashOf(i int32) uint32 { return s.hash(s.keys[i]) }

func (s *slab) find(key string) int32 {
	return s.x.Find(s.hash(key), func(i int32) bool { return s.keys[i] == key })
}

func (s *slab) insert(key string) int32 {
	var i int32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
		s.keys[i] = key
	} else {
		i = int32(len(s.keys))
		s.keys = append(s.keys, key)
	}
	s.x.Insert(i, s.hash(key), s.hashOf)
	return i
}

func (s *slab) delete(i int32) {
	s.x.Delete(i, s.hash(s.keys[i]), s.hashOf)
	s.keys[i] = ""
	s.free = append(s.free, i)
}

// grouped hashes a key to one of three home cells at every table length:
// the last ("z…"), the first ("a…") or the middle ("m…"), so the groups'
// probe runs wrap past the end of the table and merge into each other.
func grouped(key string) uint32 {
	switch key[0] {
	case 'z':
		return 0xFFFF_FFFF
	case 'a':
		return 0
	default:
		return 0x8000_0000
	}
}

// TestIndexMatchesMap drives seeded insert, delete and find through the
// index beside a Go map from key to slot, checking every key after every
// step. Seeds 1–200 use Hash over 40 keys; seeds 201–400 use grouped over 30
// keys that share three home cells, so inserts and deletes land inside long
// wrapping runs and the backward shift moves cells across the table's end.
func TestIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &slab{hash: Hash}
		keys := make([]string, 40)
		if seed > 200 {
			s.hash, keys = grouped, keys[:30]
		}
		for i := range keys {
			keys[i] = fmt.Sprintf("%c%d", "zam"[i%3], i)
		}
		model := map[string]int32{}
		for step := 0; step < 300; step++ {
			k := keys[rng.Intn(len(keys))]
			i, held := model[k]
			switch {
			case rng.Intn(3) == 0 && held:
				s.delete(i)
				delete(model, k)
			case rng.Intn(2) == 0 && !held:
				model[k] = s.insert(k)
			}
			for _, k := range keys {
				want, ok := model[k]
				if !ok {
					want = None
				}
				if got := s.find(k); got != want {
					t.Fatalf("seed %d step %d: Find(%s) = %d, model %d", seed, step, k, got, want)
				}
			}
			if s.x.Len() != len(model) || 4*s.x.Len() > 3*len(s.x.cells) {
				t.Fatalf("seed %d step %d: Len %d over %d cells, model %d", seed, step, s.x.Len(), len(s.x.cells), len(model))
			}
		}
	}
}

func TestZeroIndex(t *testing.T) {
	var x Index
	if got := x.Find(Hash("k"), func(int32) bool { return true }); got != None || x.Len() != 0 {
		t.Fatalf("empty index: Find = %d, Len = %d", got, x.Len())
	}
	x.Delete(0, Hash("k"), func(int32) uint32 { return 0 }) // not indexed: a no-op
	if x.Len() != 0 {
		t.Fatalf("Len = %d after deleting from an empty index", x.Len())
	}
}

// TestIndexProbeLength: the broker's point-read keys spread over an index
// under Hash well enough that a hit takes at most two probes on average.
func TestIndexProbeLength(t *testing.T) {
	const entries = 4096
	s := &slab{hash: Hash}
	for n := 1; n <= entries; n++ {
		s.insert("SELECT id, name FROM records WHERE id = " + strconv.Itoa(n))
	}
	var found, probes int
	mask := len(s.x.cells) - 1
	for i, k := range s.keys {
		if s.find(k) != int32(i) {
			continue
		}
		// Probes run from the home cell to the key's, wrapping.
		found++
		for pos := int(Hash(k) >> s.x.shift); s.x.cells[pos] != int32(i)+1; pos = (pos + 1) & mask {
			probes++
		}
		probes++
	}
	if found != entries {
		t.Fatalf("probing found %d keys of %d", found, entries)
	}
	mean := float64(probes) / float64(found)
	t.Logf("%d keys held in %d cells, %.3f probes per hit", found, len(s.x.cells), mean)
	if mean > 2 {
		t.Fatalf("%.3f probes per hit, want at most 2", mean)
	}
}

// TestIndexAllocs: once the table has grown to its working size, finding,
// deleting and inserting allocate nothing, and neither do the compare and
// rehash functions the caller passes.
func TestIndexAllocs(t *testing.T) {
	s := &slab{hash: Hash}
	for n := 0; n < 64; n++ {
		s.insert("key-" + strconv.Itoa(n))
	}
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i := s.find(s.keys[n%64])
		key := s.keys[i]
		s.delete(i)
		s.insert(key)
		n++
	})
	if allocs > 0 {
		t.Fatalf("find, delete and insert = %.1f allocs/op, want 0", allocs)
	}
}
