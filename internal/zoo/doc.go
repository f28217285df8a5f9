// Package zoo catalogues the model architectures evaluated in the paper:
// the MicroNet family (Table 5, Figure 6), the DS-CNN and MobileNetV2
// baselines, the anomaly-detection autoencoders, and stats-only comparison
// points (ProxylessNAS, MSNet, MCUNet) whose exact architectures are not
// public — those carry the paper's published numbers and are marked
// Source: "paper".
//
// The catalogue is fixed. Architectures found by cmd/search travel as
// spec files (SpecFile) or inline load bodies; a server loads them into
// its own repository, and none of them joins the catalogue.
package zoo
