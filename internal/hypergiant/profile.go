package hypergiant

import (
	"math/rand"
	"strconv"

	"offnetrisk/internal/cert"
	"offnetrisk/internal/traffic"
)

// Profile captures a hypergiant's deployment behaviour: how broadly it
// deploys at each epoch, how its boxes are sized, and the certificates it
// installs — including the naming changes between 2021 and 2023 that broke
// the original discovery methodology.
type Profile struct {
	HG traffic.HG
	// Coverage is the fraction of access ISPs hosting offnets at each
	// epoch. Ratios between epochs reproduce Table 1's growth: Google
	// +23.2%, Netflix +37.4%, Meta +16.9%, Akamai +0.0%.
	Coverage map[Epoch]float64
	// ServerGbps is the per-server serving capacity.
	ServerGbps float64
	// MaxServersPerISP caps a deployment's size in one ISP.
	MaxServersPerISP int
	// LegacySpread is the probability that a deployment predates current
	// colocation practice and sits in a non-primary facility; highest for
	// Akamai, whose "deployments date from many years before the other
	// hypergiants began deploying offnets".
	LegacySpread float64
	// OnnetOrg is the Organization entry on the hypergiant's own (onnet)
	// certificates.
	OnnetOrg string
	// OnnetDomains are hostnames served from onnet, which the 2021
	// methodology compared offnet names against.
	OnnetDomains []string
}

// Profiles returns the four hypergiants' deployment profiles. The coverage
// numbers are calibrated so that the ratio 2023/2021 matches Table 1 and the
// relative order of footprints (Google > Netflix ≳ Meta > Akamai in 2023)
// holds.
func Profiles() map[traffic.HG]Profile {
	return map[traffic.HG]Profile{
		traffic.Google: {
			HG:               traffic.Google,
			Coverage:         map[Epoch]float64{Epoch2021: 0.62, Epoch2023: 0.62 * 1.232},
			ServerGbps:       9,
			MaxServersPerISP: 24,
			LegacySpread:     0.10,
			OnnetOrg:         "Google LLC",
			OnnetDomains:     []string{"www.google.com", "youtube.com", "ggc.google.com"},
		},
		traffic.Netflix: {
			HG:               traffic.Netflix,
			Coverage:         map[Epoch]float64{Epoch2021: 0.345, Epoch2023: 0.345 * 1.374},
			ServerGbps:       18,
			MaxServersPerISP: 10,
			LegacySpread:     0.08,
			OnnetOrg:         "Netflix, Inc.",
			OnnetDomains:     []string{"netflix.com", "nflxvideo.net"},
		},
		traffic.Meta: {
			HG:               traffic.Meta,
			Coverage:         map[Epoch]float64{Epoch2021: 0.36, Epoch2023: 0.36 * 1.169},
			ServerGbps:       10,
			MaxServersPerISP: 16,
			LegacySpread:     0.08,
			OnnetOrg:         "Meta Platforms, Inc.",
			OnnetDomains:     []string{"facebook.com", "instagram.com", "star.c10r.facebook.com"},
		},
		traffic.Akamai: {
			HG:               traffic.Akamai,
			Coverage:         map[Epoch]float64{Epoch2021: 0.178, Epoch2023: 0.178},
			ServerGbps:       6,
			MaxServersPerISP: 30,
			LegacySpread:     0.45,
			OnnetOrg:         "Akamai Technologies, Inc.",
			OnnetDomains:     []string{"a248.e.akamai.net", "akamaiedge.net"},
		},
	}
}

// offnetCert builds the certificate a hypergiant installs on an offnet
// server at the given epoch and site. The 2021→2023 changes are the ones §2.2
// documents:
//
//   - Google 2021 certificates carried Organization "Google LLC"; by 2023
//     Google "does not include the Organization entry", and identification
//     must use the CN *.googlevideo.com (plus issuer checks).
//   - Meta 2021 offnets presented the same names as onnet servers
//     (*.fbcdn.net); by 2023 Meta "uses different domain names for different
//     offnet deployments" — site-specific CNs like *.fhan14-4.fna.fbcdn.net.
//   - Netflix and Akamai conventions are stable across epochs.
func offnetCert(hg traffic.HG, epoch Epoch, siteTag string, serverIdx int, r *rand.Rand) cert.Certificate {
	switch hg {
	case traffic.Google:
		cn := "*.googlevideo.com"
		san := "r" + strconv.Itoa(serverIdx+1) + "---sn-" + siteTag + ".googlevideo.com"
		if epoch == Epoch2021 {
			return cert.Certificate{
				SubjectOrg: "Google LLC",
				SubjectCN:  cn,
				DNSNames:   []string{san},
				Issuer:     "Google Trust Services LLC",
			}
		}
		return cert.Certificate{
			// Organization entry removed post-2021.
			SubjectCN: cn,
			DNSNames:  []string{san},
			Issuer:    "Google Trust Services LLC",
		}
	case traffic.Netflix:
		return cert.Certificate{
			SubjectOrg: "Netflix, Inc.",
			SubjectCN:  "*.nflxvideo.net",
			DNSNames:   []string{"ipv4-c" + zeroPad3(serverIdx+1) + "-" + siteTag + "-isp.1.oca.nflxvideo.net"},
			Issuer:     "DigiCert Inc",
		}
	case traffic.Meta:
		if epoch == Epoch2021 {
			return cert.Certificate{
				SubjectOrg: "Facebook, Inc.",
				SubjectCN:  "*.fbcdn.net",
				DNSNames:   []string{"*.fbcdn.net", "*.facebook.com"},
				Issuer:     "DigiCert Inc",
			}
		}
		// Site-specific naming, e.g. *.fhan14-4.fna.fbcdn.net.
		site := "*.f" + siteTag + "-" + strconv.Itoa(serverIdx%6+1) + ".fna.fbcdn.net"
		return cert.Certificate{
			SubjectOrg: "Meta Platforms, Inc.",
			SubjectCN:  site,
			DNSNames:   []string{site},
			Issuer:     "DigiCert Inc",
		}
	case traffic.Akamai:
		return cert.Certificate{
			SubjectOrg: "Akamai Technologies, Inc.",
			SubjectCN:  "a248.e.akamai.net",
			DNSNames:   []string{"*.akamaiedge.net", "a248.e.akamai.net"},
			Issuer:     "Let's Encrypt",
		}
	default:
		return cert.Certificate{}
	}
}

// zeroPad3 formats n ≥ 0 as fmt's %03d does: zero-padded to three digits,
// wider numbers unpadded.
func zeroPad3(n int) string {
	s := strconv.Itoa(n)
	if len(s) < 3 {
		s = "000"[len(s):] + s
	}
	return s
}
