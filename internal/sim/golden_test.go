package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"repro/internal/carbon"
	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/traffic"
)

// goldenCases are the configurations whose trajectories the golden
// digests pin: the seven timeline shapes (classic, US, latency-aware,
// redeploy, batched, power-managed, traffic), every policy (the Eq. 8
// blend at alpha 0.5 among them), the two forecasters besides the
// default seasonal-naive one, four
// workspace stress shapes (power management, heterogeneous devices,
// batching, redeploy with migration costs), and the five allocation-gate
// modes (classic, traffic, faults, redeploy, redeploy-warm).
func goldenCases() map[string]Config {
	mk := func(pol placement.Policy, hours int, mutate func(*Config)) Config {
		cfg := shortConfig(carbon.RegionEurope, pol)
		cfg.Hours = hours
		mutate(&cfg)
		return cfg
	}
	carbonAware := placement.CarbonAware{}
	cases := map[string]Config{
		"timeline/classic":  mk(carbonAware, 24*10, func(*Config) {}),
		"timeline/us":       mk(carbonAware, 24*10, func(cfg *Config) { cfg.Region = carbon.RegionUS; cfg.Seed = 7 }),
		"timeline/latency":  mk(placement.LatencyAware{}, 24*10, func(*Config) {}),
		"timeline/redeploy": mk(carbonAware, 24*10, func(cfg *Config) { cfg.RedeployEveryHours = 24 }),
		"timeline/batched":  mk(carbonAware, 24*10, func(cfg *Config) { cfg.BatchHours = 6 }),
		"timeline/powered":  mk(carbonAware, 24*10, func(cfg *Config) { cfg.ServersAlwaysOn = false }),
		"timeline/traffic": mk(carbonAware, 24*10, func(cfg *Config) {
			cfg.Traffic = &traffic.Config{Scenario: traffic.FlashCrowd, RPS: 900}
		}),
		"shape/power-managed": mk(carbonAware, 24*5, func(cfg *Config) {
			cfg.ServersAlwaysOn = false
			cfg.ArrivalsPerHour = 2
		}),
		"shape/hetero-devices": mk(carbonAware, 24*5, func(cfg *Config) {
			cfg.Devices = []string{energy.OrinNano.Name, energy.A2.Name, energy.GTX1080.Name}
			cfg.Models = []string{energy.ModelEfficientNetB0, energy.ModelResNet50, energy.ModelYOLOv4}
		}),
		"shape/batched-3h": mk(carbonAware, 24*5, func(cfg *Config) { cfg.BatchHours = 3 }),
		"shape/redeploy-12h": mk(carbonAware, 24*5, func(cfg *Config) {
			cfg.AppLifetimeHours = 24 * 7
			cfg.RedeployEveryHours = 12
			cfg.MigrationDataMB = 500
			cfg.MigrationJPerMB = 0.2
		}),
	}
	for _, pol := range []placement.Policy{
		placement.CarbonAware{}, placement.LatencyAware{}, placement.EnergyAware{}, placement.IntensityAware{},
		placement.NewCarbonEnergyBlend(0.5),
	} {
		cases["policy/"+pol.Name()] = mk(pol, 24*7, func(*Config) {})
	}
	for _, fc := range []carbon.Forecaster{carbon.EWMA{Alpha: 0.2}, carbon.Oracle{}} {
		cases["forecast/"+fc.Name()] = mk(carbonAware, 24*7, func(cfg *Config) { cfg.Forecaster = fc })
	}
	for name, cfg := range allocModes(300) {
		cfg.Hours = 24 * 6
		cases["alloc/"+name] = cfg
	}
	return cases
}

// goldenDigests is the SHA-256 of each case's encoded Result (SolveTime
// zeroed). They were recorded on linux/amd64 while the engine still
// carried its reference twins — the pre-timeline fixed epoch loop, the
// dense per-app sweep local search and the dense per-batch problem
// rebuild — and every case produced the same digest with each twin that
// applied to it switched on. The two alloc/redeploy digests came later,
// recorded before the redeploy reused bound app templates and carried
// solver slots, and unchanged by it. The blend and the two forecaster
// digests were recorded while the blend still solved one class per app
// and the forecasters still answered through per-hour forecast slices,
// the alloc/cdn digest while each solve still re-synced every server row
// into the workspace. A changed digest is a changed trajectory.
var goldenDigests = map[string]string{
	"alloc/cdn":                     "bdc3c82baac58607f71d4a8a4d10239c5881533d26297515155b548e66ceba78",
	"alloc/classic":                 "bbda6688cbe21f5f2e4e2f77a4d8f1d7c07b5aba809852c3b1ded5f2480629bd",
	"alloc/faults":                  "8a91c6a25d4a996702dbd8227ca049b42b3bbdc4d783e8f39af1293516e00424",
	"alloc/redeploy":                "b9e103b9d391530d42083c3ddb486cdfb1163fdb56260495d77341e321ff1302",
	"alloc/redeploy-warm":           "6b96b686983523fae5fa9c96a240cb03934cc81902c7533bc3a72256bcc8ce07",
	"alloc/traffic":                 "b06b508bd41f6246341c60fb07934aa9df234f5e8d342df2c5f72a303b945eb1",
	"forecast/ewma":                 "d2d28939e0258d904bbfe6b56e504ed2331148e5a4616c233af678854b1c8058",
	"forecast/oracle":               "1c641cd2da47887eea0a5a7aee60b9d30be1c9e7489763907276330c3c1dbb63",
	"policy/CarbonEdge":             "c7db70f4f295c80f8549aa971cd547d7d85af73fbb87e0e9096b08fd8772e8b6",
	"policy/CarbonEdge(alpha=0.50)": "c7db70f4f295c80f8549aa971cd547d7d85af73fbb87e0e9096b08fd8772e8b6",
	"policy/Energy-aware":           "225bfd8072e21bda6ac5c48ab2767fc9ff29c3010df4b48a7c583a99733c489c",
	"policy/Intensity-aware":        "c7db70f4f295c80f8549aa971cd547d7d85af73fbb87e0e9096b08fd8772e8b6",
	"policy/Latency-aware":          "b954477e1488ac4fcecf7f7ad4f25e87325ea52757b0cff116d772a93f55a058",
	"shape/batched-3h":              "73f5f9f59a848f8f3c0b906ec444cf960f2a0f045451fc43927a67a55c40fde4",
	"shape/hetero-devices":          "a086d4f3bdaa8154ecccb0be34f613861c7df34181b82231130982a442971e1f",
	"shape/power-managed":           "ed9f819456e6ed199874bf5ced0f982d0eb956ec1bb1b2f402b7c5fcb86679a8",
	"shape/redeploy-12h":            "f7173f8e3a98e340b61de612b7b9bea835a7d87dce96e4f03578eeec9fe2c7ec",
	"timeline/batched":              "e33f98dd10ef0f9a4a2c2d9c9469f461833e1e6e511b01aafa05fb05b06acf83",
	"timeline/classic":              "dde6977693e0fd49e9943bdb38b47bf19e8132f4e650ceb64a06909fbb8e8041",
	"timeline/latency":              "e1d1e29951795cf1dc96ecdf371030c922c38f39861352ef49b39be76490b637",
	"timeline/powered":              "2a6f24dccc521cabd1b48b57566f6b693973325b52b8427b13f6a6d7eff63613",
	"timeline/redeploy":             "9e4c78ea297a6eb79e31e3017651545a2f4663abdd294d539b0d968a95a7c168",
	"timeline/traffic":              "c9668e376909b827f91902e1f2e89ccce583c97418fc87f7ec70aa7104102fb4",
	"timeline/us":                   "c405806074cd6d734dfec9a86c5806ed6d622653012ea039750babafc8b00fe4",
}

// TestGoldenTimeline pins the seven timeline shapes.
func TestGoldenTimeline(t *testing.T) { runGolden(t, "timeline") }

// TestGoldenPolicies pins one run of each placement policy.
func TestGoldenPolicies(t *testing.T) { runGolden(t, "policy") }

// TestGoldenForecasters pins one run under each non-default forecaster.
func TestGoldenForecasters(t *testing.T) { runGolden(t, "forecast") }

// TestGoldenStressShapes pins the four workspace stress shapes.
func TestGoldenStressShapes(t *testing.T) { runGolden(t, "shape") }

// TestGoldenAllocModes pins the six allocation-gate modes.
func TestGoldenAllocModes(t *testing.T) { runGolden(t, "alloc") }

// runGolden pins the full Result of every golden case in group to its
// recorded digest, one subtest per case.
func runGolden(t *testing.T, group string) {
	t.Parallel()
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; on %s Go may fuse multiply-adds, which rounds differently", runtime.GOARCH)
	}
	w := testWorld(t)
	cases := goldenCases()
	if len(cases) != len(goldenDigests) {
		t.Errorf("%d golden cases, %d recorded digests", len(cases), len(goldenDigests))
	}
	ran := 0
	for name, cfg := range cases {
		sub, ok := strings.CutPrefix(name, group+"/")
		if !ok {
			continue
		}
		ran++
		t.Run(sub, func(t *testing.T) {
			t.Parallel()
			res, err := Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if res.Placed == 0 {
				t.Fatal("nothing placed: the pin is vacuous")
			}
			sum := sha256.Sum256(encodeResult(t, res))
			if got, want := hex.EncodeToString(sum[:]), goldenDigests[name]; got != want {
				t.Errorf("trajectory digest %s, recorded %s", got, want)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no golden cases in group %q", group)
	}
}
