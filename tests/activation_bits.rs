//! Host independence of the activation core, pinned bit for bit.
//!
//! `Sigmoid`, `Tanh` and `Gauss` are computed by the exponential core in
//! `e3_neat::activation`, which uses only IEEE-754 adds, multiplies and
//! divides — so its output bits are a property of the source, not of
//! the host's libm, CPU or compiler version. The table below was
//! produced by that core and must hold on any x86-64 or aarch64 host and
//! toolchain. Besides round values it holds inputs picked because they
//! change when a low-order polynomial coefficient or `ln 2`'s high part
//! moves by one ulp, or when the polynomial is evaluated with fused
//! multiply-adds; an edited constant or an accidental FMA contraction
//! turns this test red.

use e3::neat::Activation;

/// `(input bits, output bits)` per kind.
const TABLE: [(Activation, &[(u64, u64)]); 3] = [
    (
        Activation::Sigmoid,
        &[
            (0xc044_0000_0000_0000, 0x2e42_c9d6_038f_58d0),
            (0xc033_8000_0000_0000, 0x3751_c256_3719_4d59),
            (0xc020_0000_0000_0000, 0x3c65_cd2e_046a_abd8),
            (0xc01f_5e2a_af7d_de2e, 0x3c77_a595_692f_7b13),
            (0xc008_0000_0000_0000, 0x3e9b_b5fe_594a_dc30),
            (0xbff8_0000_0000_0000, 0x3f45_0afe_67f5_3f86),
            (0xbfee_35ad_ff70_eecc, 0x3f83_ddb6_b15b_a332),
            (0xbfe6_6666_6666_6666, 0x3fa0_0fd9_d01a_1fe4),
            (0xbfe4_ea2e_ffd4_a278, 0x3fa4_00d7_275c_7541),
            (0xbfe4_36f4_c835_47ce, 0x3fa6_2b3a_efbc_4c62),
            (0xbfd3_3333_3333_3333, 0x3fc7_edbc_4e9c_5a80),
            (0xbfb5_dc4f_d9f4_d970, 0x3fd9_66b4_63e9_7eac),
            (0xbfa9_9999_9999_999a, 0x3fdc_1978_4100_fb83),
            (0xbf1a_36e2_eb1c_432d, 0x3fdf_fdfe_32a1_12b7),
            (0x3f50_624d_d2f1_a9fc, 0x3fe0_0a09_018d_2366),
            (0x3fa9_9999_9999_999a, 0x3fe1_f343_df7f_823e),
            (0x3fc9_9999_9999_999a, 0x3fe7_4478_733a_d142),
            (0x3fe3_3333_3333_3333, 0x3fee_64ab_53f8_3bac),
            (0x3ff0_0000_0000_0000, 0x3fef_c372_d075_18cd),
            (0x4004_0000_0000_0000, 0x3fef_fff5_f705_9ed0),
            (0x4018_0000_0000_0000, 0x3fef_ffff_ffff_fa00),
            (0x4028_0000_0000_0000, 0x3ff0_0000_0000_0000),
            (0x4044_0000_0000_0000, 0x3ff0_0000_0000_0000),
        ],
    ),
    (
        Activation::Tanh,
        &[
            (0xc044_0000_0000_0000, 0xbff0_0000_0000_0000),
            (0xc033_8000_0000_0000, 0xbff0_0000_0000_0000),
            (0xc020_0000_0000_0000, 0xbfef_ffff_872a_91f8),
            (0xc008_0000_0000_0000, 0xbfef_d77d_111a_0b00),
            (0xbff8_0000_0000_0000, 0xbfec_f6f9_786d_f577),
            (0xbfe6_6666_6666_6666, 0xbfe3_56fb_17af_2e91),
            (0xbfd3_3333_3333_3333, 0xbfd2_a4dd_a7d9_14f9),
            (0xbfc2_f315_566a_ee68, 0xbfc2_cff3_81d5_71a5),
            (0xbfb8_6c77_9a6b_a3a0, 0xbfb8_5990_d5a8_aa47),
            (0xbfa9_9999_9999_999a, 0xbfa9_9424_e535_f6f8),
            (0xbf1a_36e2_eb1c_432d, 0xbf1a_36e2_e9a4_f663),
            (0x3f50_624d_d2f1_a9fc, 0x3f50_624d_7751_6ce3),
            (0x3fa9_9999_9999_999a, 0x3fa9_9424_e535_f6f8),
            (0x3fc9_9999_9999_999a, 0x3fc9_4398_30b3_a590),
            (0x3fe0_7357_d687_c3bc, 0x3fde_4790_c634_e14d),
            (0x3fe0_c5aa_c100_0752, 0x3fde_c6bf_dc98_da99),
            (0x3fe3_3333_3333_3333, 0x3fe1_2f82_92d2_ccfc),
            (0x3ff0_0000_0000_0000, 0x3fe8_5efa_b514_f394),
            (0x4004_0000_0000_0000, 0x3fef_9258_260a_71c2),
            (0x4018_0000_0000_0000, 0x3fef_ffe6_3abe_253c),
            (0x4028_0000_0000_0000, 0x3fef_ffff_fff5_9f7c),
            (0x4044_0000_0000_0000, 0x3ff0_0000_0000_0000),
        ],
    ),
    (
        Activation::Gauss,
        &[
            (0xc044_0000_0000_0000, 0x3a85_ae19_1a99_585a),
            (0xc033_8000_0000_0000, 0x3a85_ae19_1a99_585a),
            (0xc020_0000_0000_0000, 0x3a85_ae19_1a99_585a),
            (0xc008_0000_0000_0000, 0x3f20_2cf2_2526_545a),
            (0xc007_7b07_879e_664e, 0x3f27_c7b4_31c4_b56a),
            (0xbff8_0000_0000_0000, 0x3fba_fb71_8e84_57f7),
            (0xbfe6_6666_6666_6666, 0x3fe3_9aa2_aaf6_07f6),
            (0xbfe2_d3d8_f9cc_4e00, 0x3fe6_a2f8_369a_c1bc),
            (0xbfd3_3333_3333_3333, 0x3fed_3eec_9cf1_1a26),
            (0xbfa9_9999_9999_999a, 0x3fef_eb8b_ab0b_5bf7),
            (0xbf1a_36e2_eb1c_432d, 0x3fef_ffff_faa1_9c48),
            (0x3f50_624d_d2f1_a9fc, 0x3fef_fffd_e721_1d81),
            (0x3fa9_9999_9999_999a, 0x3fef_eb8b_ab0b_5bf7),
            (0x3fc9_9999_9999_999a, 0x3fee_bec9_7e70_0b8d),
            (0x3fe3_3333_3333_3333, 0x3fe6_535d_4d75_6470),
            (0x3ff0_0000_0000_0000, 0x3fd7_8b56_362c_ef38),
            (0x4003_7c49_8aa0_22c0, 0x3f65_b8eb_a45b_7042),
            (0x4004_0000_0000_0000, 0x3f5f_a0e9_586a_ebc7),
            (0x4016_f207_b705_e28c, 0x3cf7_0deb_445a_019c),
            (0x4018_0000_0000_0000, 0x3cb0_b6c3_afdd_e064),
            (0x4028_0000_0000_0000, 0x3a85_ae19_1a99_585a),
            (0x4044_0000_0000_0000, 0x3a85_ae19_1a99_585a),
        ],
    ),
];

#[test]
fn the_activation_core_produces_the_committed_bits() {
    let mut wrong = Vec::new();
    for (kind, rows) in TABLE {
        for &(input, output) in rows {
            let x = f64::from_bits(input);
            let got = kind.apply(x).to_bits();
            if got != output {
                wrong.push(format!(
                    "{kind}({x:e}) = {got:#018x}, committed {output:#018x}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
