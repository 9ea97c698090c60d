//! The generic offload mechanism of §III-C (Figs 3 & 4), exercised with a
//! custom user-defined backend.
//!
//! The paper's offload layer "enables Darknet to pull a particular
//! implementation from an arbitrary user-defined shared library". This
//! example plays the role of such a library: it registers a backend that
//! computes a per-channel scaling (standing in for any accelerator), writes
//! a darknet-style cfg with an `[offload]` section, and runs the resulting
//! network through the full init → load_weights → forward → destroy life
//! cycle.
//!
//! ```text
//! cargo run --example offload_plugin
//! ```

use tincy::nn::{
    parse_cfg, BackendRegistry, Network, NnError, OffloadBackend, OffloadConfig, WeightsReader,
    WeightsWriter,
};
use tincy::tensor::{Shape3, Tensor};

/// A toy accelerator: multiplies each channel by a loaded gain — the
/// simplest possible "external implementation" with real parameters.
struct ChannelGainBackend {
    gains: Vec<f32>,
    shape: Shape3,
}

impl ChannelGainBackend {
    fn boxed() -> Box<dyn OffloadBackend> {
        Box::new(Self {
            gains: Vec::new(),
            shape: Shape3::new(1, 1, 1),
        })
    }
}

impl OffloadBackend for ChannelGainBackend {
    fn library_name(&self) -> &str {
        "channel-gain.so"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn init(&mut self, config: &OffloadConfig) -> Result<(), NnError> {
        // Fig 3: "Initialize Layer with access to Configuration".
        if config.input_shape != config.output_shape {
            return Err(NnError::InvalidSpec {
                what: "channel-gain backend preserves geometry".to_owned(),
            });
        }
        self.shape = config.output_shape;
        self.gains = vec![1.0; self.shape.channels];
        println!(
            "  [init] library={} network={} weights={} geometry={}",
            config.library, config.network, config.weights, config.output_shape
        );
        Ok(())
    }

    fn load_weights(&mut self, reader: &mut WeightsReader<'_>) -> Result<(), NnError> {
        self.gains = reader.read_f32s(self.shape.channels)?;
        println!("  [load_weights] {} gains loaded", self.gains.len());
        Ok(())
    }

    fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let spatial = self.shape.spatial();
        let mut out = input.clone();
        for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
            *v *= self.gains[i / spatial];
        }
        Ok(out)
    }

    fn num_params(&self) -> usize {
        self.shape.channels
    }

    fn ops_per_frame(&self) -> u64 {
        self.shape.volume() as u64
    }
}

impl Drop for ChannelGainBackend {
    fn drop(&mut self) {
        // Fig 3: "Resource Cleanup".
        println!("  [destroy] channel-gain backend released");
    }
}

const CFG: &str = r"
[net]
channels=2
height=4
width=4

[offload]
library=channel-gain.so
network=gains.json
weights=gains.bin
height=4
width=4
channel=2
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Register the 'shared library'.
    let mut registry = BackendRegistry::new();
    registry.register("channel-gain.so", ChannelGainBackend::boxed);

    // Parse the manipulated network configuration (Fig 4).
    let spec = parse_cfg(CFG)?;
    println!(
        "parsed cfg with {} layer(s); building network...",
        spec.layers.len()
    );
    let mut net = Network::from_spec(&spec, &registry, 0)?;

    // Provide weights through the regular sequential stream.
    let mut blob = Vec::new();
    {
        let mut writer = WeightsWriter::new(&mut blob);
        writer.write_header(2)?;
        writer.write_f32s(&[2.0, -1.0])?;
    }
    net.load_weights(std::io::Cursor::new(blob))?;

    // Forward: channel 0 doubled, channel 1 negated.
    let input = Tensor::from_fn(Shape3::new(2, 4, 4), |c, _, _| (c + 1) as f32);
    let out = net.forward(&input)?;
    println!(
        "forward: channel 0 -> {}, channel 1 -> {}",
        out.at(0, 0, 0),
        out.at(1, 0, 0)
    );
    assert_eq!(out.at(0, 0, 0), 2.0);
    assert_eq!(out.at(1, 0, 0), -2.0);
    println!("offload life cycle complete; dropping the network triggers destroy:");
    Ok(())
}
