package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"casyn/internal/subject"
)

// dagDigest is a SHA-256 over the DAG's gate list in ID order: each
// gate's type and both fanin IDs.
func dagDigest(d *subject.DAG) string {
	h := sha256.New()
	var buf [17]byte
	for id := 0; id < d.NumGates(); id++ {
		g := d.Gate(id)
		buf[0] = byte(g.Type)
		binary.LittleEndian.PutUint64(buf[1:], uint64(g.In[0]))
		binary.LittleEndian.PutUint64(buf[9:], uint64(g.In[1]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSISSubjectPinned pins the SISOptimized front end (FromPLA,
// FastExtract, Sweep, Decompose), which the golden suite never runs:
// any change to it that moves a single gate or fanin fails here.
func TestSISSubjectPinned(t *testing.T) {
	t.Parallel()
	cases := []struct {
		class  Class
		gates  int
		digest string
	}{
		{SPLA, 878, "7fcf59f5d91d5febe9b8fec6151e9555491c9a65c1db9f9ab97a4bcc5c2ef22c"},
		{PDC, 772, "c702aff4034ae21b8fa2404d5e928207f1c9c26bc6356a62d97f27df94e2ed9e"},
	}
	for _, c := range cases {
		p, err := Generate(c.class.ScaledSpec(0.05))
		if err != nil {
			t.Fatal(err)
		}
		d, err := BuildSubject(p, SISOptimized)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.NumGates(); got != c.gates {
			t.Errorf("%v: %d gates, want %d", c.class, got, c.gates)
		}
		if got := dagDigest(d); got != c.digest {
			t.Errorf("%v: gate-list digest %s, want %s", c.class, got, c.digest)
		}
	}
}
