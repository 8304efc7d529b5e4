package energy

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCataloguePhysicallySane(t *testing.T) {
	for _, d := range catalogue {
		if d.IdleW <= 0 || d.MaxW <= d.IdleW {
			t.Errorf("%s: idle %.0fW max %.0fW not physical", d.Name, d.IdleW, d.MaxW)
		}
		if d.MemMB <= 0 {
			t.Errorf("%s: memory %d MB", d.Name, d.MemMB)
		}
	}
	// Figure 7 / §6.1.2 ordering: Orin Nano (15W) < A2 (60W) < GTX 1080 (180W).
	if !(OrinNano.MaxW < A2.MaxW && A2.MaxW < GTX1080.MaxW) {
		t.Error("GPU max power ordering violated")
	}
	if GTX1080.CUDACores != 2*GTX1080.CUDACores/2 || GTX1080.CUDACores != 2560 {
		t.Errorf("GTX 1080 CUDA cores = %d, want 2560", GTX1080.CUDACores)
	}
}

func TestDeviceByName(t *testing.T) {
	d, err := DeviceByName("A2")
	if err != nil || d.MemMB != 16384 {
		t.Errorf("DeviceByName(A2) = %v, %v", d, err)
	}
	if _, err := DeviceByName("H100"); err == nil {
		t.Error("unknown device should error")
	}
}

func TestProfileTableComplete(t *testing.T) {
	// All three DNN models must be profiled on all three GPUs (Fig 7),
	// and Sci on the Xeon.
	for _, model := range []string{ModelEfficientNetB0, ModelResNet50, ModelYOLOv4} {
		for _, dev := range []string{OrinNano.Name, A2.Name, GTX1080.Name} {
			if _, err := ProfileFor(model, dev); err != nil {
				t.Errorf("missing profile: %v", err)
			}
		}
	}
	if _, err := ProfileFor(ModelSci, XeonE5.Name); err != nil {
		t.Errorf("missing Sci profile: %v", err)
	}
	if _, err := ProfileFor(ModelSci, A2.Name); err == nil {
		t.Error("Sci on GPU should not exist")
	}
}

func TestFig7EnergySpreadAcrossModels(t *testing.T) {
	// Figure 7a: energy consumption reaches ~45x across models on the
	// same device.
	eff, _ := ProfileFor(ModelEfficientNetB0, OrinNano.Name)
	yolo, _ := ProfileFor(ModelYOLOv4, OrinNano.Name)
	ratio := yolo.EnergyPerRequestJ() / eff.EnergyPerRequestJ()
	if ratio < 15 || ratio > 80 {
		t.Errorf("YOLOv4/EfficientNetB0 energy ratio on Orin Nano = %.1f, paper reports ~45x", ratio)
	}
}

func TestFig7InferenceTimeOrdering(t *testing.T) {
	// Figure 7c: the GTX 1080 is the fastest device for every model;
	// the Orin Nano is the slowest.
	for _, model := range []string{ModelEfficientNetB0, ModelResNet50, ModelYOLOv4} {
		orin, _ := ProfileFor(model, OrinNano.Name)
		a2, _ := ProfileFor(model, A2.Name)
		gtx, _ := ProfileFor(model, GTX1080.Name)
		if !(gtx.InferenceMs < a2.InferenceMs && a2.InferenceMs < orin.InferenceMs) {
			t.Errorf("%s: inference times not ordered GTX<A2<Orin: %v %v %v",
				model, gtx.InferenceMs, a2.InferenceMs, orin.InferenceMs)
		}
	}
}

func TestFig7MemoryOrdering(t *testing.T) {
	// Figure 7b: YOLOv4 uses the most memory on every device.
	for _, dev := range []string{OrinNano.Name, A2.Name, GTX1080.Name} {
		eff, _ := ProfileFor(ModelEfficientNetB0, dev)
		res, _ := ProfileFor(ModelResNet50, dev)
		yolo, _ := ProfileFor(ModelYOLOv4, dev)
		if !(eff.MemMB < res.MemMB && res.MemMB < yolo.MemMB) {
			t.Errorf("%s: memory not ordered Eff<Res<YOLO", dev)
		}
	}
}

func TestOrinServesLoadWithFarLessEnergy(t *testing.T) {
	// Figure 15a discussion: serving the same load on Orin Nano uses
	// ~95.6% less energy than GTX 1080 once base power is included.
	// Emulate one hour of ResNet50 at 20 req/s on a single device.
	const reqPerHour = 20 * 3600.0
	total := func(dev Device) float64 {
		p, err := ProfileFor(ModelResNet50, dev.Name)
		if err != nil {
			t.Fatal(err)
		}
		busy := reqPerHour * p.InferenceMs / 1000 // seconds busy
		return dev.IdleW*3600 + p.DynamicW*busy
	}
	orin, gtx := total(OrinNano), total(GTX1080)
	saving := 1 - orin/gtx
	if saving < 0.85 || saving > 0.99 {
		t.Errorf("Orin vs GTX energy saving = %.1f%%, paper reports 95.6%%", saving*100)
	}
}

func TestModelsAndDevicesProfiled(t *testing.T) {
	models := ModelsProfiled()
	if len(models) != 4 {
		t.Errorf("ModelsProfiled = %v, want 4 entries", models)
	}
	// Every catalogue device is profiled for some model.
	for _, d := range catalogue {
		profiled := false
		for _, m := range models {
			if _, err := ProfileFor(m, d.Name); err == nil {
				profiled = true
			}
		}
		if !profiled {
			t.Errorf("device %s has no profile", d.Name)
		}
	}
}

func TestMeterIntegration(t *testing.T) {
	var m Meter
	m.Record(100, 30*time.Minute) // 100W for 0.5h = 50 Wh = 180 kJ
	if got := m.TotalJoules(); math.Abs(got-180000) > 1e-6 {
		t.Errorf("TotalJoules = %v, want 180000", got)
	}
	if got := m.TotalKWh(); math.Abs(got-0.05) > 1e-9 {
		t.Errorf("TotalKWh = %v, want 0.05", got)
	}
	if got := m.State().LastW; got != 100 {
		t.Errorf("last watts = %v", got)
	}
	m.Record(20, 1000*time.Second)
	if got := m.TotalJoules(); math.Abs(got-200000) > 1e-6 {
		t.Errorf("after a second Record = %v, want 200000", got)
	}
	if n := m.State().Samples; n != 2 {
		t.Errorf("samples = %d, want 2", n)
	}
}

func TestMeterIgnoresInvalid(t *testing.T) {
	var m Meter
	m.Record(-5, time.Second)
	m.Record(5, -time.Second)
	if m.TotalJoules() != 0 {
		t.Errorf("invalid recordings counted: %v", m.TotalJoules())
	}
}

func TestMeterConcurrency(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Record(1, time.Second)
			}
		}()
	}
	wg.Wait()
	if got := m.TotalJoules(); got != 16000 {
		t.Errorf("concurrent total = %v, want 16000", got)
	}
}
