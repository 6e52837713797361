package dst

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFrameFaultsGolden pins the frame-fault schedule: the first 64
// gridded Frame results of three (connection, direction) streams for one
// seed, as the simulation has always drawn them. Every faulted trace
// depends on these variates, so a change that adds, drops or reorders
// one draw fails here before it reshuffles testdata/trace.sha256. Each
// token is the gridded delay in ns, then x for a drop and + for a
// duplicate. The sparse table zeroes the duplicate and delay
// probabilities and the delay span: it pins that those draws consume
// only what they always did.
func TestFrameFaultsGolden(t *testing.T) {
	type stream struct {
		conn    int
		inbound bool
	}
	full := Scenario{Seed: 7, DropProb: 0.25, DupProb: 0.25, DelayProb: 0.5,
		DelayMin: 50 * time.Microsecond, DelayMax: 1500 * time.Microsecond}
	sparse := Scenario{Seed: 7, DropProb: 0.3}
	for _, tc := range []struct {
		name    string
		sc      Scenario
		streams []stream
		want    [][]string
	}{
		{"full", full, []stream{{1, true}, {1, false}, {130, true}}, [][]string{{
			"0 0x 376865+ 0 1294369 770081 1245217 0",
			"0 196641x 1277985 0+ 1228833 0x+ 0x 557089",
			"0x 0 0x 0+ 376865x 0+ 573473x 0x+",
			"393249x 0 0 1228833 0+ 196641+ 475169 868385",
			"1261601 1474593 196641+ 0 0 0 1409057 1228833x",
			"1261601x+ 0 1343521 1228833 606241+ 0 557089x 0",
			"0+ 966689x 0 966689x+ 98337+ 360481 344097 1245217x+",
			"0+ 147489x 0+ 1114145+ 835617 589857 0x 1261601",
		}, {
			"966705 802865 0 0x 0x 0 229425x+ 999473",
			"0 393265x 1114161 0 0+ 1196081 1458225+ 1327153",
			"1228849x+ 1261617 1327153 213041+ 458801+ 0 0x 1196081",
			"819249 540721 0 0 262193x 0 1130545x+ 0+",
			"507953 0+ 0 311345 1294385 0 868401 622641",
			"0x 0 0 0+ 0 819249x 999473 344113x",
			"1474609x 0 0+ 131121 0 557105 1261617 589873x",
			"327729 0x 1097777 0 868401 0+ 753713x 1409073",
		}, {
			"639073 1212513+ 901217x+ 1032289+ 0x 1130593+ 950369 770145+",
			"0 704609 196705 1081441x 1228897x 491617x+ 65633 917601",
			"0 180321+ 1359969 1327201+ 1245281x 0x 0x 835681",
			"1409121 802913 0x 1359969 344161 278625 655457 0",
			"245857 966753 0 0x+ 0 344161x 0 0",
			"0 1359969x+ 0x 1294433 1032289+ 229473 0 114785",
			"0 0 0 475233 0 82017 0 1425505+",
			"0+ 1015905 311393 1245281x 147553x 1491041 688225x+ 786529",
		}}},
		{"sparse", sparse, []stream{{1, true}}, [][]string{{
			"0 0 0 0 0x 0x 0 0",
			"0 0 0 0 0 0 0 0",
			"0x 0 0 0 0 0 0x 0x",
			"0 0 0x 0x 0 0 0x 0",
			"0 0 0 0 0 0 0x 0x",
			"0 0 0 0x 0x 0 0 0x",
			"0 0 0 0x 0x 0 0x 0",
			"0x 0x 0 0x 0 0 0 0",
		}}},
	} {
		ff := newNetFaults(&tc.sc)
		got := make([][]string, len(tc.streams))
		// Interleave the streams frame by frame, as a run does: a
		// stream's schedule must not depend on its neighbours' draws.
		for seq := 0; seq < 64; seq++ {
			for i, s := range tc.streams {
				f := ff.Frame(s.conn, s.inbound, seq)
				tok := fmt.Sprint(int64(f.Delay))
				if f.Drop {
					tok += "x"
				}
				if f.Duplicate {
					tok += "+"
				}
				got[i] = append(got[i], tok)
			}
		}
		for i, s := range tc.streams {
			if g, w := strings.Join(got[i], " "), strings.Join(tc.want[i], " "); g != w {
				t.Errorf("%s: conn %d inbound %v:\n got %s\nwant %s", tc.name, s.conn, s.inbound, g, w)
			}
		}
	}
}
