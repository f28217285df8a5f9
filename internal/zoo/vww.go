package zoo

import (
	"fmt"

	"micronets/internal/arch"
)

// MicroNetVWW reconstructs the four MicroNet VWW models. The paper shows
// VWW-1 and VWW-2 as block diagrams (Figure 6) whose exact filter counts
// are given graphically; we reconstruct IBN stacks that match the published
// op counts and model sizes (Table 4) to within a few percent, preserving
// the structural choices the figure shows: grayscale input, a MobilenetV2
// IBN backbone with per-block searched expansion/compression widths, and
// input resolutions of 160x160 (medium MCU) and 50x50 (small MCU).
//
// VWW-3 and VWW-4 are intermediate models from the same search space (the
// paper tabulates them without diagrams); we reconstruct them at 128x128
// and 112x112.
func MicroNetVWW(variant int) *arch.Spec {
	switch variant {
	case 1:
		// Medium MCU target: 160x160x1, ~135.9 Mops, ~833 KB flash.
		return &arch.Spec{
			Name: "MicroNet-VWW-1", Task: "vww", Source: "repro",
			InputH: 160, InputW: 160, InputC: 1, NumClasses: 2,
			Blocks: []arch.Block{
				{Kind: arch.Conv, KH: 3, KW: 3, OutC: 16, Stride: 2},
				ibn(16, 8, 1),
				ibn(24, 16, 2),
				ibn(64, 16, 1),
				ibn(64, 16, 1),
				ibn(96, 24, 2),
				ibn(144, 24, 1),
				ibn(144, 24, 1),
				ibn(144, 48, 2),
				ibn(288, 48, 1),
				ibn(288, 48, 1),
				ibn(288, 48, 1),
				ibn(288, 48, 1),
				ibn(288, 80, 1),
				ibn(480, 80, 1),
				ibn(480, 112, 2),
				ibn(624, 112, 1),
				ibn(624, 144, 1),
				{Kind: arch.Conv, KH: 1, KW: 1, OutC: 384, Stride: 1},
				{Kind: arch.GlobalPool},
				{Kind: arch.Dense, OutC: 2},
			},
		}
	case 2:
		// Small MCU target: 50x50x1, ~5.3 Mops, ~230 KB flash.
		return &arch.Spec{
			Name: "MicroNet-VWW-2", Task: "vww", Source: "repro",
			InputH: 50, InputW: 50, InputC: 1, NumClasses: 2,
			Blocks: []arch.Block{
				{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2},
				ibn(16, 8, 1),
				ibn(24, 16, 2),
				ibn(48, 16, 1),
				ibn(48, 24, 2),
				ibn(72, 24, 1),
				ibn(96, 40, 2),
				ibn(160, 40, 1),
				ibn(160, 80, 2),
				ibn(320, 80, 1),
				ibn(288, 144, 1),
				{Kind: arch.Conv, KH: 1, KW: 1, OutC: 256, Stride: 1},
				{Kind: arch.GlobalPool},
				{Kind: arch.Dense, OutC: 2},
			},
		}
	case 3:
		// ~45.2 Mops, ~458 KB flash at 128x128.
		return &arch.Spec{
			Name: "MicroNet-VWW-3", Task: "vww", Source: "repro",
			InputH: 128, InputW: 128, InputC: 1, NumClasses: 2,
			Blocks: []arch.Block{
				{Kind: arch.Conv, KH: 3, KW: 3, OutC: 16, Stride: 2},
				ibn(16, 8, 1),
				ibn(24, 16, 2),
				ibn(64, 16, 1),
				ibn(96, 24, 2),
				ibn(144, 24, 1),
				ibn(144, 40, 2),
				ibn(240, 40, 1),
				ibn(240, 40, 1),
				ibn(240, 56, 1),
				ibn(336, 56, 2),
				ibn(336, 96, 1),
				ibn(448, 96, 1),
				ibn(448, 96, 1),
				{Kind: arch.Conv, KH: 1, KW: 1, OutC: 320, Stride: 1},
				{Kind: arch.GlobalPool},
				{Kind: arch.Dense, OutC: 2},
			},
		}
	case 4:
		// ~37.7 Mops, ~416 KB flash at 112x112.
		return &arch.Spec{
			Name: "MicroNet-VWW-4", Task: "vww", Source: "repro",
			InputH: 112, InputW: 112, InputC: 1, NumClasses: 2,
			Blocks: []arch.Block{
				{Kind: arch.Conv, KH: 3, KW: 3, OutC: 16, Stride: 2},
				ibn(16, 8, 1),
				ibn(24, 16, 2),
				ibn(64, 16, 1),
				ibn(96, 24, 2),
				ibn(144, 24, 1),
				ibn(144, 40, 2),
				ibn(240, 40, 1),
				ibn(240, 40, 1),
				ibn(240, 56, 1),
				ibn(336, 56, 2),
				ibn(336, 96, 1),
				ibn(448, 96, 1),
				ibn(448, 96, 1),
				{Kind: arch.Conv, KH: 1, KW: 1, OutC: 288, Stride: 1},
				{Kind: arch.GlobalPool},
				{Kind: arch.Dense, OutC: 2},
			},
		}
	default:
		panic(fmt.Sprintf("zoo: unknown VWW variant %d", variant))
	}
}
