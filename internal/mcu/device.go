package mcu

import "fmt"

// Device describes one MCU board.
type Device struct {
	// Name is the STM32 part (used throughout the paper's tables).
	Name string
	// CPU is the Arm core.
	CPU string
	// ClockMHz is the core clock.
	ClockMHz float64
	// SRAMKB and FlashKB are the on-chip memory sizes (Table 1).
	SRAMKB, FlashKB int
	// CycleFactor scales kernel cycle counts relative to the Cortex-M7
	// baseline: the M4 cannot dual-issue load+ALU and runs a slower
	// memory system, making it ~2x slower end to end (§3.1).
	CycleFactor float64
	// ActiveMW and SleepMW are board-level power draws as measured by an
	// Otii-style supply (§3.4, Figure 9).
	ActiveMW, SleepMW float64
	// SupplyVoltage converts power to current for trace plots.
	SupplyVoltage float64
	// PriceUSD as in Table 1.
	PriceUSD float64
	// Size class used in the tables: "S", "M" or "L".
	Class string
}

// The three targets of the paper (Table 1). Active power levels are the
// board-level values implied by Table 4's latency/energy pairs
// (e.g. MicroNet-KWS-S: 40.68 mJ / 0.250 s = 163 mW on the F446RE).
var (
	F446RE = &Device{
		Name: "STM32F446RE", CPU: "Cortex-M4", ClockMHz: 180,
		SRAMKB: 128, FlashKB: 512, CycleFactor: 1.90,
		ActiveMW: 163, SleepMW: 7, SupplyVoltage: 3.3, PriceUSD: 3, Class: "S",
	}
	F746ZG = &Device{
		Name: "STM32F746ZG", CPU: "Cortex-M7", ClockMHz: 216,
		SRAMKB: 320, FlashKB: 1024, CycleFactor: 1.0,
		ActiveMW: 445, SleepMW: 16, SupplyVoltage: 3.3, PriceUSD: 5, Class: "M",
	}
	F767ZI = &Device{
		Name: "STM32F767ZI", CPU: "Cortex-M7", ClockMHz: 216,
		SRAMKB: 512, FlashKB: 2048, CycleFactor: 0.975,
		ActiveMW: 460, SleepMW: 17, SupplyVoltage: 3.3, PriceUSD: 8, Class: "L",
	}
)

// Devices returns the three boards, smallest first.
func Devices() []*Device { return []*Device{F446RE, F746ZG, F767ZI} }

// ByClass returns the device for a size class ("S", "M", "L").
func ByClass(class string) (*Device, error) {
	for _, d := range Devices() {
		if d.Class == class {
			return d, nil
		}
	}
	return nil, fmt.Errorf("mcu: unknown device class %q", class)
}

// SRAMBytes returns the SRAM size in bytes.
func (d *Device) SRAMBytes() int { return d.SRAMKB * 1024 }

// FlashBytes returns the flash size in bytes.
func (d *Device) FlashBytes() int { return d.FlashKB * 1024 }

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("%s (%s @ %.0f MHz, %d KB SRAM, %d KB flash)",
		d.Name, d.CPU, d.ClockMHz, d.SRAMKB, d.FlashKB)
}
